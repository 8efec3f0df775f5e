"""Typed plan trees for the query execution engine.

The planner (:mod:`repro.query.planner`) compiles a parsed query into a
tree of these operators, one tree for the whole store; the executor
(:mod:`repro.query.executor`) runs it once per query, over the column
view of the query's scope, with per-operator instrumentation.  Shapes:

* ``FullScan`` — the naive evaluator over every document (always
  applicable; the baseline every other plan is priced against);
* ``IndexLookup → AncestorWalk`` — a value index supplies the nodes
  whose value matches one atomic predicate, and the predicate's operand
  path is walked ancestor-wards to candidate context nodes;
* ``Union`` / ``Intersect`` — combine candidate context sets of several
  drivers (disjunctive predicates need *all* branches covered and union
  them; conjunctive predicates may intersect several selective
  branches);
* ``StructuralVerify`` — the root of every index plan: verifies the
  outer path structurally and re-checks the full predicate, so results
  always equal :func:`repro.query.evaluator.evaluate_naive`.

Every node carries the planner's cost estimates (``estimated_rows``,
``estimated_cost``) and a stable ``op_id`` the executor uses to report
per-operator actuals in ``explain(..., execute=True)``.

**Plan-proved predicates**: ``StructuralVerify`` re-checks the full
predicate with the naive evaluator on the (already narrowed)
survivors, except for the parts the plan shape proves redundant
(:meth:`PlanNode.answers`).  The base case: an ``AncestorWalk`` over an
``IndexLookup`` whose driver *is* an atomic predicate guarantees that
predicate for every candidate it emits (each candidate, by
construction, reaches an exact, verified index hit through the operand
path), provided the operand path carries no positional predicate
(whose per-context counting the existential walk cannot reproduce).
The guarantee propagates structurally: an ``Intersect`` guarantees
whatever *any* child guarantees (its output is a subset of each
child's), a ``Union`` guarantees what *all* children guarantee, and an
``or`` predicate is guaranteed once any disjunct is.  For ``and``
predicates the re-check shrinks to the *residual* conjuncts the plan
does not prove — ``[a >= x and a < y]`` planned as range walks needs no
re-check at all, while a partially covered conjunction re-checks only
the uncovered conjuncts.  Plans are immutable once built, so the
residual is computed once, when ``StructuralVerify`` is constructed.
"""

from __future__ import annotations

from typing import Any, Iterator

from .ast import BooleanExpr, Path, PositionPredicate, Step

__all__ = [
    "PlanNode",
    "FullScan",
    "IndexLookup",
    "AncestorWalk",
    "Intersect",
    "Union",
    "StructuralVerify",
    "ScatterGather",
    "RemotePlan",
    "render_plan",
]


class PlanNode:
    """Base class of all plan operators."""

    op = "plan"

    def __init__(self, children: tuple["PlanNode", ...] = ()):
        self.children = children
        #: Planner estimates (filled during plan construction).
        self.estimated_rows: float = 0.0
        self.estimated_cost: float = 0.0
        #: Stable pre-order operator id (assigned by :func:`number_plan`).
        self.op_id: int = -1

    def answers(self, predicate) -> bool:
        """True when every candidate this subtree emits provably
        satisfies ``predicate`` (see the module docstring for the
        argument).  Boolean predicates decompose — ``or`` needs one
        guaranteed disjunct, ``and`` needs all conjuncts; the set
        operators and the walk override this with what their shape
        guarantees."""
        if isinstance(predicate, BooleanExpr):
            decide = any if predicate.op == "or" else all
            return decide(self.answers(part) for part in predicate.children)
        return False

    # -- rendering ------------------------------------------------------

    def describe(self) -> str:
        """One-line operator description (no estimates)."""
        return self.op

    def walk(self) -> Iterator["PlanNode"]:
        """Pre-order traversal of the tree."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self, actuals: dict[int, dict] | None = None) -> dict:
        """JSON-friendly form of the subtree (with actuals if given)."""
        node: dict[str, Any] = {
            "op": self.op,
            "describe": self.describe(),
            "estimated_rows": round(self.estimated_rows, 2),
            "estimated_cost": round(self.estimated_cost, 2),
        }
        if actuals is not None and self.op_id in actuals:
            node["actual"] = actuals[self.op_id]
        if self.children:
            node["children"] = [
                child.to_dict(actuals) for child in self.children
            ]
        return node


class FullScan(PlanNode):
    """Evaluate the whole path with the naive evaluator."""

    op = "FullScan"

    def __init__(self, path: Path, reason: str = ""):
        super().__init__()
        self.path = path
        #: Why the planner scanned ("no index applies", "cost", ...).
        self.reason = reason

    def describe(self) -> str:
        return f"FullScan({self.reason})" if self.reason else "FullScan"


class IndexLookup(PlanNode):
    """Fetch value-matching nodes from one index.

    ``kind`` is ``"string"``, ``"substring"`` or the configured typed
    index's name (``"double"``, ``"dateTime"``, ...).  For typed
    lookups ``value`` holds the literal already cast into the index's
    value domain.

    A typed lookup may carry a *second* bound (``high_op``/
    ``high_value``): the planner fuses conjoined range comparisons over
    the same operand path (``[a >= x and a < y]``) into one bounded
    window scan of the value run.  ``proves`` lists every atomic
    predicate each emitted node is guaranteed to satisfy (the driver
    alone for plain lookups; all fused conjuncts for a window) — the
    batch executor uses it to elide the scalar predicate re-check.
    """

    op = "IndexLookup"

    def __init__(self, kind: str, driver, op_symbol: str = "=",
                 value: Any = None, high_op: str | None = None,
                 high_value: Any = None,
                 proves: tuple | None = None):
        super().__init__()
        self.kind = kind
        self.driver = driver
        self.op_symbol = op_symbol
        self.value = value
        self.high_op = high_op
        self.high_value = high_value
        self.proves = (driver,) if proves is None else proves
        self.bounds: dict[str, Any] | None = None
        if kind not in ("string", "substring"):
            bounds = {}
            if op_symbol in ("=", ">", ">="):
                bounds["low"] = value
                bounds["include_low"] = op_symbol != ">"
            if op_symbol in ("=", "<", "<="):
                bounds["high"] = value
                bounds["include_high"] = op_symbol != "<"
            if high_op is not None:
                bounds["high"] = high_value
                bounds["include_high"] = high_op == "<="
            self.bounds = bounds
        #: What the lookup asks its index: lookups with equal probes
        #: return the same nids, so disjuncts with equal probes share
        #: one lookup (see :class:`AncestorWalk`).
        if self.bounds is None:
            self.probe = (kind, getattr(driver, "function", op_symbol),
                          driver.literal)
        else:
            self.probe = (kind, *self.bounds.items())

    def describe(self) -> str:
        if self.high_op is not None:
            return (
                f"IndexLookup[{self.kind}] {self.op_symbol} {self.value!r} "
                f"and {self.high_op} {self.high_value!r}"
            )
        literal = getattr(self.driver, "literal", self.value)
        return f"IndexLookup[{self.kind}] {self.op_symbol} {literal!r}"


class AncestorWalk(PlanNode):
    """Walk index hits ancestor-wards through the operand path.

    Disjuncts whose lookups share one probe (``[a = 7 or .//a = 7]``)
    share one walk: it takes several operand paths from the same hits
    and unites the contexts, so the index is scanned once.
    """

    op = "AncestorWalk"

    def __init__(self, child: IndexLookup, *operands: tuple[Step, ...]):
        super().__init__((child,))
        self.operands = operands

    def answers(self, predicate) -> bool:
        if len(self.operands) == 1 and any(
            proved is predicate for proved in self.children[0].proves
        ):
            return not any(
                isinstance(step_predicate, PositionPredicate)
                for step in self.operands[0]
                for step_predicate in step.predicates
            )
        return super().answers(predicate)

    def describe(self) -> str:
        paths = " | ".join(f"{len(steps)} step(s)" for steps in self.operands)
        return f"AncestorWalk[{paths}]"


class Intersect(PlanNode):
    """Intersect candidate context sets (conjunctive drivers)."""

    op = "Intersect"

    def __init__(self, children: tuple[PlanNode, ...]):
        super().__init__(children)

    def answers(self, predicate) -> bool:
        return any(
            child.answers(predicate) for child in self.children
        ) or super().answers(predicate)

    def describe(self) -> str:
        return f"Intersect[{len(self.children)}]"


class Union(PlanNode):
    """Union candidate context sets (disjunctive drivers)."""

    op = "Union"

    def __init__(self, children: tuple[PlanNode, ...]):
        super().__init__(children)

    def answers(self, predicate) -> bool:
        return all(
            child.answers(predicate) for child in self.children
        ) or super().answers(predicate)

    def describe(self) -> str:
        return f"Union[{len(self.children)}]"


class StructuralVerify(PlanNode):
    """Verify the outer path and re-check the predicate parts the
    candidate subplan does not prove (``residual``; empty when it
    proves the whole predicate)."""

    op = "StructuralVerify"

    def __init__(self, child: PlanNode, path: Path, predicate):
        super().__init__((child,))
        self.path = path
        self.predicate = predicate
        if child.answers(predicate):
            self.residual: tuple = ()
        elif isinstance(predicate, BooleanExpr) and predicate.op == "and":
            self.residual = tuple(
                conjunct
                for conjunct in predicate.children
                if not child.answers(conjunct)
            )
        else:
            self.residual = (predicate,)

    def describe(self) -> str:
        return f"StructuralVerify[{len(self.path.steps)} step(s)]"


class ScatterGather(PlanNode):
    """Coordinator root: scatter the query to shards, gather by document.

    Children are one :class:`RemotePlan` per participating shard.  Each
    shard runs its one plan over its store view (the query text carries
    the predicates, so only ``(document, pre, nid)`` rows come back)
    and returns the rows of the documents it was asked for, in pre
    order; placements are disjoint, so the gather emits each
    document's rows in global document order.
    """

    op = "ScatterGather"

    def __init__(self, children: tuple["RemotePlan", ...]):
        super().__init__(children)

    def describe(self) -> str:
        return f"ScatterGather[{len(self.children)} shard(s)]"


class RemotePlan(PlanNode):
    """One shard's contribution to a scatter-gather plan.

    A display/accounting proxy: the actual operator tree lives in the
    shard process; ``summary`` carries the shard's own ``explain``
    rendering so a coordinator explain still shows where indices were
    used.
    """

    op = "RemotePlan"

    def __init__(self, shard: int, documents: tuple[str, ...],
                 summary: str = ""):
        super().__init__()
        self.shard = shard
        self.documents = documents
        self.summary = summary

    def describe(self) -> str:
        docs = ",".join(self.documents) if self.documents else "-"
        return f"RemotePlan[shard={self.shard} docs={docs}]"


def number_plan(root: PlanNode) -> PlanNode:
    """Assign pre-order ``op_id``\\ s; returns ``root`` for chaining."""
    for op_id, node in enumerate(root.walk()):
        node.op_id = op_id
    return root


def render_plan(
    root: PlanNode, actuals: dict[int, dict] | None = None
) -> str:
    """Indented text rendering of a plan tree with estimates/actuals."""
    lines: list[str] = []

    def visit(node: PlanNode, depth: int) -> None:
        line = (
            f"{'  ' * depth}{node.describe()}  "
            f"(est rows={node.estimated_rows:.1f} "
            f"cost={node.estimated_cost:.1f}"
        )
        if actuals is not None and node.op_id in actuals:
            actual = actuals[node.op_id]
            line += (
                f" | actual rows={actual['rows']} "
                f"time={actual['seconds'] * 1000:.2f}ms"
            )
        lines.append(line + ")")
        for child in node.children:
            visit(child, depth + 1)

    visit(root, 0)
    return "\n".join(lines)
