"""The plan executor: one sorted numpy row-id pipeline, instrumented.

Runs the plans built by :mod:`repro.query.planner` once over a column
view (:class:`~repro.xmldb.columns.DocColumns`): the store-wide view
for an unscoped query, one document's view for a scoped one — the
executor has one path either way.  Operators exchange sorted,
duplicate-free int64 row arrays and evaluate the structural operators
with the merge/interval kernels of :mod:`repro.query.kernels`:

* ``IndexLookup`` scans its index once, maps the nid slice to the
  view's rows by arithmetic over the nid runs and keeps the rows that
  pass the node tests of the walk above it (a generic index holds every
  node of a value, whatever its name), so only those are sorted;
* ``AncestorWalk`` / ``StructuralVerify`` become O(depth) batched
  column gathers plus interval stabbing (``anc < row <= end[anc]``);
* ``Intersect`` / ``Union`` are single ``np.intersect1d`` /
  ``np.union1d`` merges.

Text is the only per-document work left: string verification,
residual predicates and ``FullScan`` run per document segment of their
batch (:meth:`DocColumns.segments`), and only for the documents that
hold candidates; every text read is a batch read of the document's
heap (:meth:`~repro.xmldb.document.Document.read_texts`).

**Sortedness invariant**: every array handed between operators is
sorted ascending with no duplicates.  All kernels both rely on it
(binary-search probes) and preserve it, so no operator ever re-sorts;
the one sort is an ``IndexLookup``'s, after its node test.

Each operator records its output cardinality and (inclusive) wall time
into an ``actuals`` dict keyed by the node's ``op_id`` — an
``IndexLookup`` records the rows its scan mapped to as ``rows`` and its
output as ``tested``; the manager's metrics registry receives them once
per plan (the lookups' two as ``query.index.candidates`` and
``query.index.tested``), so repeated queries show up in
:meth:`repro.database.Database.metrics`.

Correctness invariant: whatever the plan shape, the result equals
:func:`repro.query.evaluator.evaluate_naive` — index operators only
*narrow the candidate set*, and ``StructuralVerify`` re-establishes the
full path structure and every predicate part the plan does not prove
(:attr:`repro.query.plan.StructuralVerify.residual`) before a node is
emitted.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.manager import IndexManager
from ..xmldb.columns import EMPTY_PRES, DocColumns, string_equal_pres
from ..xmldb.document import Document
from .ast import AnyTest, FunctionPredicate, SelfTest
from .evaluator import evaluate_naive
from .kernels import (
    ancestor_walk,
    filter_predicates,
    match_test,
    structural_verify,
)
from .plan import (
    AncestorWalk,
    FullScan,
    IndexLookup,
    Intersect,
    PlanNode,
    StructuralVerify,
    Union,
)

__all__ = ["execute_plan", "execute_pres"]

def _scan(manager: IndexManager, node: IndexLookup) -> "np.ndarray":
    """The index scan behind one ``IndexLookup``: the nids of every
    document's matching entries, an int64 array in no particular order.
    No nid repeats — one typed value and one hash per node, and the
    ``contains``/``matches`` lookups return distinct leaves."""
    driver = node.driver
    if isinstance(driver, FunctionPredicate):
        lookup = (
            manager.lookup_contains
            if driver.function == "contains"
            else manager.lookup_regex
        )
        return np.fromiter(lookup(driver.literal), dtype=np.int64)
    if node.kind == "string":
        return manager.string_index.candidate_nids(driver.literal)
    return manager.lookup_typed_range_nids(node.kind, **node.bounds)


def _walk_tests(walk: AncestorWalk) -> tuple:
    """The walk's first filter: its operands' distinct last-step node
    tests, or ``()`` when some operand's last step selects any node."""
    tests = {}
    for steps in walk.operands:
        if not steps or isinstance(steps[-1].test, (SelfTest, AnyTest)):
            return ()
        tests[steps[-1].test] = None
    return tuple(tests)


def _index_pres(
    manager: IndexManager, cols: DocColumns, node: IndexLookup, tests: tuple
) -> tuple["np.ndarray", int]:
    """Sorted rows of the value-matching nodes of one ``IndexLookup``
    that pass one of the node ``tests`` (every row passes ``()``), and
    how many rows the scan mapped to before the test.  One index scan,
    mapped to the view's rows (nids outside it drop); the test runs
    before the sort and, for a string lookup, before collision
    verification, so neither pays for rows the walk would drop."""
    nids = _scan(manager, node)
    mapped = 0

    def test(rows: "np.ndarray") -> "np.ndarray":
        nonlocal mapped
        mapped = rows.size
        if not tests:
            return np.ones(rows.size, dtype=bool)
        mask = match_test(cols, rows, tests[0])
        for other in tests[1:]:
            mask |= match_test(cols, rows, other)
        return mask

    if node.kind == "string":
        pres = string_equal_pres(cols, nids, node.driver.literal, test)
    else:
        pres = cols.pres_of_nids(nids, test)
    return pres, mapped


def _full_scan(cols: DocColumns, node: FullScan) -> "np.ndarray":
    """The naive evaluator over every document of the view, its pres
    shifted to the view's rows."""
    pres = [
        np.asarray(evaluate_naive(doc, node.path), dtype=np.int64) + offset
        for doc, offset in zip(cols.docs, cols.offsets.tolist())
    ]
    return np.concatenate(pres) if pres else EMPTY_PRES


def _run(
    manager: IndexManager,
    cols: DocColumns,
    node: PlanNode,
    actuals: dict[int, dict],
    tests: tuple = (),
) -> "np.ndarray":
    """Execute one operator; returns its sorted output rows (inclusive
    time and output cardinality are recorded into ``actuals``).
    ``tests`` is the first filter of the walk above an ``IndexLookup``."""
    start = time.perf_counter()
    actual = {}
    if isinstance(node, FullScan):  # always the whole plan
        pres = _full_scan(cols, node)
        manager.metrics.counter("query.plans.scan").inc()
    elif isinstance(node, IndexLookup):
        pres, mapped = _index_pres(manager, cols, node, tests)
        actual = {"rows": mapped, "tested": int(pres.size)}
    elif isinstance(node, AncestorWalk):
        hits = _run(manager, cols, node.children[0], actuals,
                    _walk_tests(node))
        pres = ancestor_walk(cols, hits, node.operands[0])
        for steps in node.operands[1:]:
            pres = np.union1d(pres, ancestor_walk(cols, hits, steps))
    elif isinstance(node, Intersect):
        pres = _run(manager, cols, node.children[0], actuals)
        for child in node.children[1:]:
            pres = np.intersect1d(
                pres,
                _run(manager, cols, child, actuals),
                assume_unique=True,
            )
    elif isinstance(node, Union):
        pres = EMPTY_PRES
        for child in node.children:
            pres = np.union1d(pres, _run(manager, cols, child, actuals))
    elif isinstance(node, StructuralVerify):  # root of every index plan
        candidates = _run(manager, cols, node.children[0], actuals)
        pres = structural_verify(
            cols, candidates, node.path.steps, node.predicate
        )
        pres = filter_predicates(cols, pres, node.residual)
        manager.metrics.counter("query.plans.index").inc()
    else:  # pragma: no cover - defensive
        raise TypeError(f"unknown plan node {node!r}")
    actuals[node.op_id] = {
        "rows": int(pres.size),
        **actual,
        "seconds": time.perf_counter() - start,
    }
    return pres


def execute_pres(
    manager: IndexManager,
    cols: DocColumns,
    plan: PlanNode,
    actuals: dict[int, dict] | None = None,
) -> "np.ndarray":
    """Run a plan tree once over the column view ``cols``; returns the
    matching rows as a sorted int64 array.  ``actuals`` (if given) is
    filled with per-operator ``{"rows", "seconds"}`` entries keyed by
    ``op_id``.  The operators' metrics are flushed here, once per plan.
    """
    operators: dict[int, dict] = {}
    pres = _run(manager, cols, plan, operators)
    if actuals is not None:
        actuals.update(operators)
    metrics = manager.metrics
    metrics.counter("query.exec.vectorized_ops").inc(len(operators))
    batch_rows = metrics.histogram("query.exec.batch_rows")
    candidates = metrics.counter("query.index.candidates")
    tested = metrics.counter("query.index.tested")
    for operator in operators.values():
        batch_rows.observe(operator["rows"])
        if "tested" in operator:
            candidates.inc(operator["rows"])
            tested.inc(operator["tested"])
    metrics.counter("query.rows").inc(int(pres.size))
    return pres


def execute_plan(
    manager: IndexManager,
    doc: Document,
    plan: PlanNode,
    actuals: dict[int, dict] | None = None,
) -> list[int]:
    """:func:`execute_pres` over one document's view, with the pres as
    a list, in document order."""
    return execute_pres(manager, doc.columns(), plan, actuals).tolist()
