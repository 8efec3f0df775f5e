"""Cost-based query planning over the generic value indices.

The engine runs in three explicit phases:

1. **Plan** — :func:`build_plan` compiles a parsed query into a typed
   operator tree (:mod:`repro.query.plan`): either a ``FullScan`` or an
   index plan ``IndexLookup → AncestorWalk → (Union/Intersect) →
   StructuralVerify`` that evaluates the paper's shape *backwards* (the
   value index supplies value-matching nodes, the operand path is
   walked ancestor-wards, the outer path is verified structurally).
2. **Price** — candidate plans are priced with the selectivity
   snapshots of :mod:`repro.core.statistics`; in ``auto`` mode the
   index plan is only chosen when its estimated candidate set is
   cheaper than the scan it replaces.
3. **Execute** — :mod:`repro.query.executor` runs the tree with
   per-operator instrumentation.

Any configured typed index is eligible: numeric literals route through
an index whose plugin implements xs:double, and quoted temporal
literals (``"2002-05-06T10:00:00"``) route through a matching
dateTime/date/... index.  Anything the planner does not recognise falls
back to a ``FullScan``, so results always equal
:func:`repro.query.evaluator.evaluate_naive`.

A plan is priced store-wide (index estimates count every document's
entries, and so does the scan they are weighed against), as it runs.
Plans are cached per ``(query text, mode)`` while the manager's
``plan_generation`` stands — structural changes, index-set changes and
base-run rebuilds move it, text updates do not — so repeated queries
skip recognition, routing and pricing for every reader, pinned or
live.  A query runs its plan once, over the column
view of its scope (the store's, or one document's), so each index
lookup scans its index once.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat

import numpy as np

from ..core.manager import IndexManager
from ..xmldb.columns import DocColumns
from ..xmldb.document import Document
from .ast import (
    AttributeTest,
    BooleanExpr,
    Comparison,
    FunctionPredicate,
    Path,
    PositionPredicate,
    TextTest,
)
from .evaluator import typed_literal
from .executor import execute_pres
from .plan import (
    AncestorWalk,
    FullScan,
    IndexLookup,
    Intersect,
    PlanNode,
    StructuralVerify,
    Union,
    number_plan,
    render_plan,
)
from .parser import parse_query

__all__ = ["query", "query_rows", "explain", "Explanation", "build_plan"]

#: ``auto`` mode scans when the index is expected to return more than
#: this fraction of the store's nodes as candidates.
SCAN_THRESHOLD = 0.25

#: Cost units: visiting one document node during a scan costs 1.
SCAN_COST_PER_NODE = 1.0

#: Each index candidate pays a tree walk, an ancestor walk and a
#: structural verification — modelled as ``1/SCAN_THRESHOLD`` scan
#: nodes so the cost crossover sits exactly at the validated threshold.
CANDIDATE_COST = SCAN_COST_PER_NODE / SCAN_THRESHOLD

#: Bound on the per-manager plan cache (entries, FIFO eviction).
PLAN_CACHE_SIZE = 256

_parse = lru_cache(maxsize=512)(parse_query)


# ---------------------------------------------------------------------------
# Driver recognition and routing
# ---------------------------------------------------------------------------

_INDEXABLE_AXES = ("child", "descendant", "self")


def _typed_route(manager: IndexManager, driver: Comparison):
    """``(index name, op, typed literal)`` of the configured typed index
    serving this comparison, or ``None``.

    Numeric literals need an index whose plugin implements xs:double
    (general-comparison semantics cast operands to double); quoted
    literals with an order operator need an index of the literal's
    detected temporal type.  ``!=`` has no useful index form.
    """
    if driver.op == "!=":
        return None
    if isinstance(driver.literal, str):
        if driver.op == "=":
            return None  # string equality belongs to the string index
        detected = typed_literal(driver.literal)
        if detected is None:
            return None
        type_name, value = detected
        for name, index in manager.typed_indexes.items():
            if index.plugin.name == type_name:
                return name, driver.op, value
        return None
    for name, index in manager.typed_indexes.items():
        if index.plugin.name == "double":
            return name, driver.op, driver.literal
    return None


def _driver_kind(manager: IndexManager, driver) -> str | None:
    """Which index would serve this atomic predicate, or ``None``."""
    if isinstance(driver, FunctionPredicate):
        index = manager.substring_index
        if index is None:
            return None
        last_test = driver.operand.steps[-1].test
        if not isinstance(last_test, (TextTest, AttributeTest)):
            return None
        literal = index.probe_literal(driver.function, driver.literal)
        return None if literal is None else "substring"
    if isinstance(driver.literal, str) and driver.op in ("=", "!="):
        if driver.op == "=" and manager.string_index is not None:
            return "string"
        return None
    route = _typed_route(manager, driver)
    return None if route is None else route[0]


def _plan_drivers(manager: IndexManager, predicate) -> list | None:
    """The atomic predicates whose index hits jointly *cover* all
    context nodes satisfying ``predicate``.

    * an indexable atom covers itself;
    * ``and``: any one indexable conjunct covers (the rest is verified);
    * ``or``: every disjunct must be covered (hits are unioned).

    Returns ``None`` when no covering driver set exists.  (This is the
    recognition rule behind the compact ``explain`` summary; the cost
    model may pick a different — cheaper — covering conjunct.)
    """
    if isinstance(predicate, (Comparison, FunctionPredicate)):
        if _driver_kind(manager, predicate) is None:
            return None
        return [predicate]
    if isinstance(predicate, BooleanExpr):
        if predicate.op == "and":
            for child in predicate.children:
                drivers = _plan_drivers(manager, child)
                if drivers is not None:
                    return drivers
            return None
        drivers: list = []
        for child in predicate.children:
            child_drivers = _plan_drivers(manager, child)
            if child_drivers is None:
                return None
            drivers.extend(child_drivers)
        return drivers
    return None


def _estimate_driver(manager: IndexManager, driver) -> float:
    """Expected number of index candidates for one atomic predicate."""
    if isinstance(driver, FunctionPredicate):
        index = manager.substring_index
        literal = index.probe_literal(driver.function, driver.literal)
        if literal is None:
            return float("inf")
        return float(index.estimate_candidates(literal))
    if isinstance(driver.literal, str) and driver.op in ("=", "!="):
        return manager.statistics("string").estimate_equal()
    route = _typed_route(manager, driver)
    if route is None:
        return float("inf")
    name, op, value = route
    return manager.statistics(name).estimate(op, value)


# ---------------------------------------------------------------------------
# Plan construction
# ---------------------------------------------------------------------------


def _atom_plan(manager: IndexManager, atom) -> PlanNode | None:
    """``IndexLookup → AncestorWalk`` for one atomic predicate, priced;
    ``None`` when no index applies (or reverse/sibling operand axes
    make the backwards walk unsound)."""
    kind = _driver_kind(manager, atom)
    if kind is None:
        return None
    if not all(step.axis in _INDEXABLE_AXES for step in atom.operand.steps):
        return None
    if isinstance(atom, FunctionPredicate) or kind in ("string", "substring"):
        lookup = IndexLookup(kind, atom)
    else:
        name, op, value = _typed_route(manager, atom)
        lookup = IndexLookup(name, atom, op_symbol=op, value=value)
    estimate = _estimate_driver(manager, atom)
    lookup.estimated_rows = estimate
    lookup.estimated_cost = estimate * SCAN_COST_PER_NODE
    walk = AncestorWalk(lookup, atom.operand.steps)
    walk.estimated_rows = estimate
    walk.estimated_cost = lookup.estimated_cost + estimate * SCAN_COST_PER_NODE
    return walk


_LOW_OPS = (">", ">=")
_HIGH_OPS = ("<", "<=")

#: Negation of a bound: a value *fails* ``< h`` exactly when it
#: satisfies ``>= h``, and so on.
_NEGATED_OP = {"<": ">=", "<=": ">", ">": "<=", ">=": "<"}


def _bound_implies(op: str, value, conjunct_op: str, conjunct_value) -> bool:
    """Does every witness of ``op value`` also satisfy
    ``conjunct_op conjunct_value``?  Both ops must be on the same side
    (both lows or both highs)."""
    if op in _LOW_OPS:
        if value > conjunct_value:
            return True
        return value == conjunct_value and not (
            op == ">=" and conjunct_op == ">"
        )
    if value < conjunct_value:
        return True
    return value == conjunct_value and not (
        op == "<=" and conjunct_op == "<"
    )


def _range_walk(
    manager: IndexManager,
    name: str,
    operand,
    driver,
    op: str,
    value,
    proves: tuple,
) -> AncestorWalk:
    """One priced ``IndexLookup → AncestorWalk`` over a typed bound.

    ``proves`` may be empty: the lookup still *generates* candidates
    from ``driver``'s operand path, it just guarantees nothing about
    the original conjuncts (the residual re-check covers them).
    """
    lookup = IndexLookup(
        name, driver, op_symbol=op, value=value, proves=proves
    )
    estimate = manager.statistics(name).estimate(op, value)
    lookup.estimated_rows = estimate
    lookup.estimated_cost = estimate * SCAN_COST_PER_NODE
    walk = AncestorWalk(lookup, operand.steps)
    walk.estimated_rows = estimate
    walk.estimated_cost = lookup.estimated_cost + estimate * SCAN_COST_PER_NODE
    return walk


def _fuse_range_conjuncts(manager: IndexManager, conjuncts):
    """Fuse typed range conjuncts over the same operand path into
    bounded window lookups.

    ``[year >= 2000 and year < 2005]`` becomes a sorted-run scan of the
    ``[2000, 2005)`` window instead of an open-ended scan of everything
    ``>= 2000`` whose bulk is then discarded.

    XPath comparisons are existential, so the two conjuncts may be
    witnessed by *different* operand nodes: a context with years 1998
    and 2007 satisfies both yet has nothing inside the window.  The
    window alone is therefore an incomplete candidate generator, and
    each fused plan is the exact decomposition

        window(low, high)  ∪  (walk(¬high) ∩ walk(¬low))

    — a context satisfying both bounds either has a single witness in
    the window, or its low witness fails the high bound (``¬high``)
    while some other node fails the low bound (``¬low``).  The
    complement intersect is usually near-empty; the window does the
    heavy lifting.  Returns ``(fused plans, leftover conjuncts)``;
    every branch ``proves`` the absorbed conjuncts its witnesses
    imply, so the verify step can skip their re-check
    (:attr:`repro.query.plan.StructuralVerify.residual`).
    """
    groups: dict = {}
    leftovers = []
    for conjunct in conjuncts:
        route = None
        if (
            isinstance(conjunct, Comparison)
            and conjunct.op in _LOW_OPS + _HIGH_OPS
            and all(
                step.axis in _INDEXABLE_AXES
                for step in conjunct.operand.steps
            )
        ):
            route = _typed_route(manager, conjunct)
        if route is None:
            leftovers.append(conjunct)
            continue
        name, op, value = route
        groups.setdefault((name, conjunct.operand), []).append(
            (conjunct, op, value)
        )
    fused = []
    for (name, operand), members in groups.items():
        lows = [m for m in members if m[1] in _LOW_OPS]
        highs = [m for m in members if m[1] in _HIGH_OPS]
        if not lows or not highs:
            leftovers.extend(atom for atom, _op, _value in members)
            continue
        # Tightest bound per side; at equal values the exclusive op
        # is the tighter one.
        _, low_op, low_value = max(lows, key=lambda m: (m[2], m[1] == ">"))
        _, high_op, high_value = min(
            highs, key=lambda m: (m[2], m[1] == "<=")
        )
        proves = tuple(atom for atom, _op, _value in members)
        lookup = IndexLookup(
            name,
            proves[0],
            op_symbol=low_op,
            value=low_value,
            high_op=high_op,
            high_value=high_value,
            proves=proves,
        )
        histogram = manager.statistics(name).histogram
        estimate = histogram.estimate_range(low_value, high_value)
        if low_op == ">":
            estimate -= histogram.estimate_equal(low_value)
        if high_op == "<":
            estimate -= histogram.estimate_equal(high_value)
        estimate = max(0.0, estimate)
        lookup.estimated_rows = estimate
        lookup.estimated_cost = estimate * SCAN_COST_PER_NODE
        window = AncestorWalk(lookup, operand.steps)
        window.estimated_rows = estimate
        window.estimated_cost = (
            lookup.estimated_cost + estimate * SCAN_COST_PER_NODE
        )
        # Complement: low witness past the high bound, high witness
        # below the low bound.  Each branch proves the same-side
        # conjuncts its witnesses imply (``>= 2005`` implies
        # ``>= 2000``); anything unimplied stays a residual.
        neg_high_op = _NEGATED_OP[high_op]
        neg_low_op = _NEGATED_OP[low_op]
        neg_high = _range_walk(
            manager, name, operand, proves[0], neg_high_op, high_value,
            tuple(
                atom for atom, op, value in lows
                if _bound_implies(neg_high_op, high_value, op, value)
            ),
        )
        neg_low = _range_walk(
            manager, name, operand, proves[0], neg_low_op, low_value,
            tuple(
                atom for atom, op, value in highs
                if _bound_implies(neg_low_op, low_value, op, value)
            ),
        )
        complement = Intersect((neg_high, neg_low))
        complement.estimated_rows = min(
            neg_high.estimated_rows, neg_low.estimated_rows
        )
        complement.estimated_cost = (
            neg_high.estimated_cost + neg_low.estimated_cost
        )
        node = Union((window, complement))
        node.estimated_rows = window.estimated_rows + complement.estimated_rows
        node.estimated_cost = window.estimated_cost + complement.estimated_cost
        fused.append(node)
    return fused, leftovers


def _share_probes(covers: list[PlanNode]) -> list[PlanNode]:
    """Disjunct walks whose lookups ask their index the same question
    (equal :attr:`~repro.query.plan.IndexLookup.probe`) merged into one
    walk over all their operand paths, so each probe is scanned once."""
    first_of: dict = {}
    shared: list[PlanNode] = []
    for plan in covers:
        if not isinstance(plan, AncestorWalk):
            shared.append(plan)
            continue
        lookup = plan.children[0]
        at = first_of.setdefault(lookup.probe, len(shared))
        if at == len(shared):
            shared.append(plan)
            continue
        first = shared[at]
        walk = AncestorWalk(first.children[0], *first.operands,
                            *plan.operands)
        walk.estimated_rows = first.estimated_rows + plan.estimated_rows
        walk.estimated_cost = (
            first.estimated_cost + plan.estimated_cost
            - lookup.estimated_cost
        )
        shared[at] = walk
    return shared


def _cover_plan(manager: IndexManager, predicate) -> PlanNode | None:
    """Candidate-context subplan covering ``predicate``, or ``None``.

    ``or`` unions all branches (each must be covered); ``and`` first
    fuses same-path range conjuncts into bounded window scans
    (:func:`_fuse_range_conjuncts`), then picks the *cheapest* covered
    conjunct by estimate and intersects any further conjunct whose own
    candidate walk is comparably cheap — every extra intersection is
    sound (the true result is a subset of each conjunct's candidates)
    and shrinks the verification load.
    """
    if isinstance(predicate, (Comparison, FunctionPredicate)):
        return _atom_plan(manager, predicate)
    if not isinstance(predicate, BooleanExpr):
        return None
    if predicate.op == "and":
        fused, leftovers = _fuse_range_conjuncts(
            manager, predicate.children
        )
        covers = fused + [
            plan
            for plan in (
                _cover_plan(manager, child) for child in leftovers
            )
            if plan is not None
        ]
    else:
        covers = [
            plan
            for plan in (
                _cover_plan(manager, child) for child in predicate.children
            )
            if plan is not None
        ]
    if predicate.op == "and":
        if not covers:
            return None
        covers.sort(key=lambda plan: plan.estimated_rows)
        cheapest = covers[0]
        extras = [
            plan
            for plan in covers[1:]
            if plan.estimated_rows <= 2 * cheapest.estimated_rows + 64
        ]
        if not extras:
            return cheapest
        node = Intersect((cheapest, *extras))
        node.estimated_rows = cheapest.estimated_rows
        node.estimated_cost = sum(p.estimated_cost for p in (cheapest, *extras))
        return node
    if len(covers) != len(predicate.children):
        return None  # a disjunct without an index breaks the cover
    covers = _share_probes(covers)
    if len(covers) == 1:
        return covers[0]
    node = Union(tuple(covers))
    node.estimated_rows = sum(plan.estimated_rows for plan in covers)
    node.estimated_cost = sum(plan.estimated_cost for plan in covers)
    return node


def build_plan(
    manager: IndexManager,
    doc: Document | None,
    path: Path,
    use_indexes: bool | str = True,
) -> PlanNode:
    """Compile the plan of a parsed path.

    ``use_indexes`` mirrors :func:`query`: ``True`` forces the index
    plan whenever one applies, ``False`` forces the scan, and ``"auto"``
    prices both and keeps the cheaper.  Both are priced store-wide, so
    the plan is the same for every document; ``doc``, the document a
    per-document caller is about to run it on, does not change it.
    """
    nodes = manager.store.total_nodes()
    scan = FullScan(path)
    scan.estimated_rows = float(nodes)
    scan.estimated_cost = nodes * SCAN_COST_PER_NODE
    if use_indexes is False:
        scan.reason = "forced"
        return number_plan(scan)
    if any(
        isinstance(predicate, PositionPredicate)
        for step in path.steps
        for predicate in step.predicates
    ):
        scan.reason = "positional predicate"
        return number_plan(scan)
    if not all(step.axis in _INDEXABLE_AXES for step in path.steps):
        scan.reason = "reverse/sibling axis"
        return number_plan(scan)
    final = path.steps[-1]
    predicate = next(iter(final.predicates), None)
    if predicate is None:
        scan.reason = "no value predicate"
        return number_plan(scan)
    cover = _cover_plan(manager, predicate)
    if cover is None:
        scan.reason = "no index applies"
        return number_plan(scan)
    candidates = cover.estimated_rows
    if use_indexes == "auto" and candidates > SCAN_THRESHOLD * nodes:
        scan.reason = (
            f"cost: ~{candidates:.0f} candidates > "
            f"{SCAN_THRESHOLD:.0%} of {nodes} nodes"
        )
        return number_plan(scan)
    verify = StructuralVerify(cover, path, predicate)
    verify.estimated_rows = candidates
    verify.estimated_cost = (
        cover.estimated_cost
        + candidates * (CANDIDATE_COST - 2 * SCAN_COST_PER_NODE)
    )
    return number_plan(verify)


def _plan_for(
    manager: IndexManager,
    text: str,
    path: Path,
    use_indexes: bool | str,
) -> PlanNode:
    """Cached :func:`build_plan`, keyed by query text and mode; an
    entry is served while the manager's ``plan_generation`` is the one
    it was built at.

    Neither the epoch nor a read view is part of the key: pinned,
    ``as_of`` and live readers share one plan, across text updates.
    A plan holds no results (execution reads each reader's own
    snapshot) and any plan is a correct plan — estimates only choose
    between plans that ``StructuralVerify`` makes equally exact.
    """
    generation = manager.plan_generation
    cache = manager._plan_cache
    key = (text, use_indexes)
    entry = cache.get(key)
    if entry is not None and entry[0] == generation:
        manager.metrics.counter("query.plan_cache.hits").inc()
        return entry[1]
    manager.metrics.counter("query.plan_cache.misses").inc()
    plan = build_plan(manager, None, path, use_indexes)
    with manager._plan_lock:
        if len(cache) >= PLAN_CACHE_SIZE:
            cache.pop(next(iter(cache)))
        cache[key] = (generation, plan)
    return plan


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _scope(manager: IndexManager, parsed, document: str | None):
    """The column view a query runs over: its document's own view when
    scoped (``doc("...")`` or ``document``), else the store's."""
    doc_name = parsed.document or document
    if doc_name is not None:
        return manager.store.document(doc_name).columns()
    return manager.store.columns()


def _evaluate(
    manager: IndexManager,
    text: str,
    document: str | None,
    use_indexes: bool | str,
) -> tuple[DocColumns, np.ndarray]:
    """Plan ``text`` and run the plan once over its scope's column
    view: ``(view, sorted rows)`` — what :func:`query` and
    :func:`query_rows` turn into their two result shapes."""
    if use_indexes not in (True, False, "auto"):
        raise ValueError("use_indexes must be True, False or 'auto'")
    parsed = _parse(text)
    metrics = manager.metrics
    with metrics.timer("query.evaluate").time():
        view = _scope(manager, parsed, document)
        plan = _plan_for(manager, text, parsed.path, use_indexes)
        pres = execute_pres(manager, view, plan)
    metrics.counter("query.executed").inc()
    return view, pres


def query(
    manager: IndexManager,
    text: str,
    document: str | None = None,
    use_indexes: bool | str = True,
) -> list[int]:
    """Evaluate a query; returns matching node ids in document order.

    ``document`` restricts evaluation to one document (a ``doc("...")``
    prefix in the query does the same).  ``use_indexes``:

    * ``True`` — always use an index plan when one applies;
    * ``False`` — always scan (the baseline for speedup benchmarks);
    * ``"auto"`` — cost-based: use the index only when its statistics
      predict fewer candidates than :data:`SCAN_THRESHOLD` of the
      store's nodes (an unselective range is cheaper to scan).
    """
    view, pres = _evaluate(manager, text, document, use_indexes)
    return view.nid[pres].tolist()


def query_rows(
    manager: IndexManager,
    text: str,
    document: str | None = None,
    use_indexes: bool | str = True,
) -> list[tuple[str, int, int]]:
    """Like :func:`query`, but returns ``(document, pre, nid)`` rows,
    built straight from the executor's row array, split by document
    with one ``searchsorted`` (a nid is never resolved back to its
    row)."""
    view, pres = _evaluate(manager, text, document, use_indexes)
    nids = view.nid[pres]
    rows: list[tuple[str, int, int]] = []
    for doc, offset, segment in view.segments(pres):
        rows.extend(zip(
            repeat(doc.name),
            (pres[segment] - offset).tolist(),
            nids[segment].tolist(),
        ))
    return rows


class ExplainReport:
    """One document of a query's scope: the number of runs its nid→pre
    map holds — 1 until structural churn fragments it — next to the one
    plan the query runs over the whole scope (and that run's actuals,
    which every document of the scope shares)."""

    def __init__(self, document: str, plan: PlanNode, nid_runs: int,
                 actuals: dict[int, dict] | None = None):
        self.document = document
        self.plan = plan
        self.nid_runs = nid_runs
        self.actuals = actuals

    def heading(self) -> str:
        return f"document {self.document!r} (nid runs {self.nid_runs})"

    def render(self) -> str:
        return (
            f"{self.heading()}:\n" + render_plan(self.plan, self.actuals)
        )

    def to_dict(self) -> dict:
        return {
            "document": self.document,
            "nid_runs": self.nid_runs,
            "plan": self.plan.to_dict(self.actuals),
        }


class Explanation(str):
    """Structured ``explain`` result.

    The string value keeps the compact legacy summary
    (``"scan"``/``"index(double)"``/...), so existing comparisons keep
    working; :attr:`reports` holds one :class:`ExplainReport` per
    document of the scope, :meth:`tree` renders their nid runs and the
    one cost-annotated pipeline, and :meth:`to_dict` is the JSON form.
    """

    reports: list[ExplainReport]

    def __new__(cls, summary: str, reports: list[ExplainReport]):
        obj = super().__new__(cls, summary)
        obj.reports = reports
        return obj

    def tree(self) -> str:
        if not self.reports:
            return "(no documents loaded)"
        first = self.reports[0]
        return "\n".join(
            [report.heading() for report in self.reports]
            + [render_plan(first.plan, first.actuals)]
        )

    def to_dict(self) -> dict:
        return {
            "summary": str(self),
            "documents": [report.to_dict() for report in self.reports],
        }


def explain(
    manager: IndexManager,
    text: str,
    document: str | None = None,
    execute: bool = False,
) -> Explanation:
    """Report the plan a query would use.

    Returns an :class:`Explanation` — comparable to the legacy compact
    strings (``"index(...)"``/``"scan"``) and carrying the plan tree
    with cost estimates and each document's nid runs.  With
    ``execute=True`` the plan is run once over the scope, as in
    :func:`query`, and each operator's actual row count and time is
    attached.
    """
    parsed = _parse(text)
    final = parsed.path.steps[-1]
    predicate = next(iter(final.predicates), None)
    summary = "scan"
    if predicate is not None:
        drivers = _plan_drivers(manager, predicate)
        if drivers is not None:
            kinds = [_driver_kind(manager, driver) for driver in drivers]
            if all(kind is not None for kind in kinds):
                summary = "index(" + "+".join(sorted(set(kinds))) + ")"
    view = _scope(manager, parsed, document)
    plan = build_plan(manager, None, parsed.path, "auto")
    actuals: dict[int, dict] | None = None
    if execute:
        actuals = {}
        execute_pres(manager, view, plan, actuals)
    return Explanation(summary, [
        ExplainReport(doc.name, plan, doc.columns().runs, actuals)
        for doc in view.docs
    ])
