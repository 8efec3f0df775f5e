"""The plan executor: sorted numpy row-id pipelines, instrumented.

Runs the plans built by :mod:`repro.query.planner` against one
document.  Operators exchange sorted, duplicate-free int64 ``pre``
arrays and evaluate the structural operators with the merge/interval
kernels of :mod:`repro.query.kernels`:

* ``IndexLookup`` takes a slice of the index's nid column and maps it
  to owned pres by arithmetic over the document's nid runs
  (:class:`~repro.xmldb.columns.DocColumns`).  The slice spans every
  document; a caller running one plan over several documents passes a
  probe memo, so each lookup scans its index once and every document
  takes its share;
* ``AncestorWalk`` / ``StructuralVerify`` become O(depth) batched
  column gathers plus interval stabbing (``anc < pre <= anc + size``);
* ``Intersect`` / ``Union`` are single ``np.intersect1d`` /
  ``np.union1d`` merges.

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
from ..xmldb.document import ATTR, TEXT, Document
from ..xmldb.mvcc import read_epoch
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


def _string_equal_pres(
    doc: Document, cols: DocColumns, nids: "np.ndarray", value: str
) -> "np.ndarray":
    """Owned pres whose XDM string value equals ``value``, out of the
    hash bucket ``nids`` of ``value``.

    Batch counterpart of ``manager.lookup_string``: nid→pre mapping via
    ``pres_of_nids`` (which also drops other documents' nids), then
    collision verification per *kind* — leaf nodes compare their heap
    slot directly (no per-node resolution through the store),
    containers fall back to ``string_value``.  Under an active MVCC
    overlay with a pinned epoch all verification goes through
    ``string_value`` so the reader sees its snapshot's values.
    """
    pres = cols.pres_of_nids(nids)
    if pres.size == 0:
        return pres
    if doc.text_overlay is not None and read_epoch() is not None:
        keep = np.fromiter(
            (doc.string_value(int(pre)) == value for pre in pres),
            dtype=bool,
            count=pres.size,
        )
        return pres[keep]
    kinds = cols.kind[pres]
    leaf = (kinds == TEXT) | (kinds == ATTR)
    keep = np.empty(pres.size, dtype=bool)
    texts = doc.texts
    leaf_slots = cols.text_id[pres[leaf]].tolist()
    keep[leaf] = [texts[slot] == value for slot in leaf_slots]
    container = ~leaf
    if container.any():
        keep[container] = _container_values_equal(
            doc, cols, pres[container], value
        )
    return pres[keep]


def _container_values_equal(
    doc: Document, cols: DocColumns, pres: "np.ndarray", value: str
) -> "np.ndarray":
    """Boolean mask: does each container node's XDM string value equal
    ``value``?

    Document/element values concatenate their TEXT descendants.  The
    dominant shape — an element wrapping exactly one text node (every
    field element of the workloads) — is resolved with two
    ``searchsorted`` probes against the sorted TEXT-position plane and
    one direct heap-slot comparison; zero-text containers compare
    against the empty string.  Only multi-text containers (and the
    rare comment/PI candidates, whose value is their own content) fall
    back to ``string_value``.
    """
    kinds = cols.kind[pres]
    concat = (kinds == 0) | (kinds == 1)  # DOC | ELEM
    keep = np.empty(pres.size, dtype=bool)
    text_pos = cols.text_positions()
    cpres = pres[concat]
    lo = np.searchsorted(text_pos, cpres + 1, side="left")
    hi = np.searchsorted(text_pos, cols.end[cpres], side="right")
    count = hi - lo
    ckeep = np.empty(cpres.size, dtype=bool)
    ckeep[count == 0] = value == ""
    one = count == 1
    if one.any():
        texts = doc.texts
        slots = cols.text_id[text_pos[lo[one]]].tolist()
        ckeep[one] = [texts[slot] == value for slot in slots]
    many = count > 1
    if many.any():
        ckeep[many] = [
            doc.string_value(int(pre)) == value for pre in cpres[many]
        ]
    keep[concat] = ckeep
    other = ~concat  # comment / processing-instruction candidates
    if other.any():
        keep[other] = [
            doc.string_value(int(pre)) == value for pre in pres[other]
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
    manager: IndexManager,
    doc: Document,
    cols: DocColumns,
    node: IndexLookup,
    probes: dict | None,
) -> "np.ndarray":
    """Owned pres of the value-matching nodes of one ``IndexLookup``.

    The scan spans every document (``pres_of_nids`` takes this
    document's share); with a ``probes`` memo it runs once per probe
    and later documents reuse it.
    """
    if probes is None:
        nids = _scan(manager, node)
    else:
        nids = probes.get(node.probe)
        if nids is None:
            nids = probes[node.probe] = _scan(manager, node)
    if node.kind == "string":
        return _string_equal_pres(doc, cols, nids, node.driver.literal)
    return cols.pres_of_nids(nids)


def _run(
    manager: IndexManager,
    doc: Document,
    cols: DocColumns,
    node: PlanNode,
    actuals: dict[int, dict],
    probes: dict | None,
) -> "np.ndarray":
    """Execute one operator; returns its sorted output pres (inclusive
    time and output cardinality are recorded into ``actuals``)."""
    start = time.perf_counter()
    if isinstance(node, FullScan):  # always the whole plan
        pres = np.asarray(evaluate_naive(doc, node.path), dtype=np.int64)
        manager.metrics.counter("query.plans.scan").inc()
    elif isinstance(node, IndexLookup):
        pres = _index_pres(manager, doc, cols, node, probes)
    elif isinstance(node, AncestorWalk):
        hits = _run(manager, doc, cols, node.children[0], actuals, probes)
        pres = ancestor_walk(doc, cols, hits, node.operand_steps)
    elif isinstance(node, Intersect):
        pres = _run(manager, doc, cols, node.children[0], actuals, probes)
        for child in node.children[1:]:
            pres = np.intersect1d(
                pres,
                _run(manager, doc, cols, child, actuals, probes),
                assume_unique=True,
            )
    elif isinstance(node, Union):
        pres = EMPTY_PRES
        for child in node.children:
            pres = np.union1d(
                pres, _run(manager, doc, cols, child, actuals, probes)
            )
    elif isinstance(node, StructuralVerify):  # root of every index plan
        candidates = _run(
            manager, doc, cols, node.children[0], actuals, probes
        )
        pres = structural_verify(
            doc, cols, candidates, node.path.steps, node.predicate
        )
        pres = filter_predicates(doc, pres, node.residual)
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
    doc: Document,
    plan: PlanNode,
    actuals: dict[int, dict] | None = None,
    probes: dict | None = None,
) -> "np.ndarray":
    """Run a plan tree over one document; returns the matching pres as
    a sorted int64 array.  ``actuals`` (if given) is filled with
    per-operator ``{"rows", "seconds"}`` entries keyed by ``op_id``.
    ``probes`` (if given) memoizes the index scans by
    :attr:`~repro.query.plan.IndexLookup.probe` for further documents
    of the same query and the same read scope.  The operators' metrics
    are flushed here, once per plan.
    """
    operators: dict[int, dict] = {}
    pres = _run(manager, doc, doc.columns(), plan, operators, probes)
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
    """:func:`execute_pres` with the pres as a list, in document order."""
    return execute_pres(manager, doc, plan, actuals).tolist()
