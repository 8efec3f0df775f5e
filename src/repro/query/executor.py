"""The plan executor: one sorted numpy row-id pipeline, instrumented.

Runs the plans built by :mod:`repro.query.planner` once over a column
view (:class:`~repro.xmldb.columns.DocColumns`): the store-wide view
for an unscoped query, one document's view for a scoped one — the
executor has one path either way.  Operators exchange sorted,
duplicate-free int64 row arrays and evaluate the structural operators
with the merge/interval kernels of :mod:`repro.query.kernels`:

* ``IndexLookup`` scans its index once and maps the nid slice to the
  view's rows by arithmetic over the nid runs;
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
(binary-search probes) and preserve it, so no operator ever re-sorts.

Each operator records its output cardinality and (inclusive) wall time
into an ``actuals`` dict keyed by the node's ``op_id``; the manager's
metrics registry receives them once per plan, so repeated queries show
up in :meth:`repro.database.Database.metrics`.

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
from ..xmldb.columns import EMPTY_PRES, DocColumns
from ..xmldb.document import ELEM, Document
from .ast import FunctionPredicate
from .evaluator import evaluate_naive
from .kernels import ancestor_walk, filter_predicates, structural_verify
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

#: :func:`_value_rows` markers for containers without a TEXT descendant
#: (string value ``""``) and with several (concatenated per node).
NO_TEXT = -1
MANY_TEXTS = -2

#: Up to this many candidates, checking each one's ``string_value``
#: costs less than the twenty-odd array operations of the batch check
#: (measured on the lifecycle corpora's small buckets and perf's
#: ``fat`` buckets of 35-150 candidates).
SMALL_BUCKET = 8


def _value_rows(cols: DocColumns, pres: "np.ndarray") -> "np.ndarray":
    """Per row of ``pres``, the row whose heap slot holds its whole XDM
    string value: the row itself for text-valued kinds (text,
    attribute, comment, PI), the one TEXT descendant of a container
    that has exactly one — the dominant shape, every field element of
    the workloads — else :data:`NO_TEXT` or :data:`MANY_TEXTS`.

    A container's TEXT descendants are sliced out of the sorted
    TEXT-position plane with two ``searchsorted`` probes over its
    subtree interval.
    """
    container = cols.kind[pres] <= ELEM  # DOC | ELEM
    if not container.any():
        return pres
    rows = pres.copy()
    cpres = pres[container]
    text_pos = cols.text_positions()
    lo = np.searchsorted(text_pos, cpres, side="right")
    count = np.searchsorted(text_pos, cols.end[cpres], side="right") - lo
    crows = np.where(count == 0, NO_TEXT, MANY_TEXTS)
    one = count == 1
    crows[one] = text_pos[lo[one]]
    rows[container] = crows
    return rows


def _string_equal_pres(
    cols: DocColumns, nids: "np.ndarray", value: str
) -> "np.ndarray":
    """Rows whose XDM string value equals ``value``, out of the hash
    bucket ``nids`` of ``value``.

    Batch counterpart of ``manager.lookup_string``: nid→row mapping via
    ``pres_of_nids``, then collision verification per document segment
    — one batch heap read (:meth:`Document.read_texts`) for every
    candidate whose value is one slot, ``string_value`` for the
    multi-text containers only, and for every candidate of a bucket of
    at most :data:`SMALL_BUCKET`.
    """
    pres = cols.pres_of_nids(nids)
    if pres.size == 0:
        return pres
    if pres.size <= SMALL_BUCKET:
        return pres[_each_equal(cols, pres, value)]
    rows = _value_rows(cols, pres)
    keep = rows == NO_TEXT if value == "" else np.zeros(pres.size, bool)
    single = np.flatnonzero(rows >= 0)
    if single.size:
        # Value rows share their candidate's document, so the sorted
        # candidates cut the slot list into per-document heap reads.
        slots = cols.text_id[rows[single]].tolist()
        texts: list[str] = []
        for doc, _offset, segment in cols.segments(pres[single]):
            texts += doc.read_texts(slots[segment])
        keep[single] = [text == value for text in texts]
    many = np.flatnonzero(rows == MANY_TEXTS)
    if many.size:
        keep[many] = _each_equal(cols, pres[many], value)
    return pres[keep]


def _each_equal(
    cols: DocColumns, pres: "np.ndarray", value: str
) -> "np.ndarray":
    """Boolean mask: does each row's ``string_value`` equal ``value``?"""
    keep = np.empty(pres.size, dtype=bool)
    for doc, offset, segment in cols.segments(pres):
        keep[segment] = [
            doc.string_value(pre - offset) == value
            for pre in pres[segment].tolist()
        ]
    return keep


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


def _index_pres(
    manager: IndexManager, cols: DocColumns, node: IndexLookup
) -> "np.ndarray":
    """Rows of the value-matching nodes of one ``IndexLookup``: one
    index scan, mapped to the view's rows (nids outside it drop)."""
    nids = _scan(manager, node)
    if node.kind == "string":
        return _string_equal_pres(cols, nids, node.driver.literal)
    return cols.pres_of_nids(nids)


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
) -> "np.ndarray":
    """Execute one operator; returns its sorted output rows (inclusive
    time and output cardinality are recorded into ``actuals``)."""
    start = time.perf_counter()
    if isinstance(node, FullScan):  # always the whole plan
        pres = _full_scan(cols, node)
        manager.metrics.counter("query.plans.scan").inc()
    elif isinstance(node, IndexLookup):
        pres = _index_pres(manager, cols, node)
    elif isinstance(node, AncestorWalk):
        hits = _run(manager, cols, node.children[0], actuals)
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
    for operator in operators.values():
        batch_rows.observe(operator["rows"])
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
