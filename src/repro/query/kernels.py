"""Vectorized structural kernels over the pre/size/level columns.

The structural operators of :mod:`repro.query.executor`:
``ancestor_walk`` finds the contexts from which an operand path selects
some index hit, ``structural_verify`` keeps the candidates an absolute
path selects.  Both operate on sorted numpy row arrays of one column
view (:class:`~repro.xmldb.columns.DocColumns`, over one document or
the whole store) and reduce every axis question to integer arithmetic
on the shredded columns:

* parent — one gather from the ``parent_pre`` plane;
* ancestors — O(depth) parent gathers with per-level dedup;
* "has an ancestor in S" — the containment interval
  ``anc < pre <= anc + size[anc]`` probed with ``searchsorted`` plus a
  prefix maximum over subtree ends (intervals nest, so the running max
  is exact);
* node tests — boolean masks over the ``kind``/``name_id`` columns;
* "child of the document node" — ``level == 1``.

Steps that carry their own nested predicates fall back to the naive
evaluator's ``_predicate_holds`` per *surviving* node, in the document
that holds it — batches shrink before the fallback runs, so the
per-node work is bounded by the candidate set, not the store.
Equivalence with :func:`repro.query.evaluator.evaluate_path` is
enforced by ``tests/query/test_vectorized_equivalence.py``, the
randomized kernel property suite and ``tests/query/test_store_view.py``.
"""

from __future__ import annotations

import numpy as np

from ..xmldb.columns import EMPTY_PRES, DocColumns
from ..xmldb.document import ATTR, ELEM, TEXT
from .ast import (
    AnyTest,
    AttributeTest,
    NameTest,
    SelfTest,
    Step,
    TextTest,
    WildcardTest,
)
from .evaluator import _predicate_holds

__all__ = [
    "match_test",
    "filter_predicates",
    "ancestor_walk",
    "structural_verify",
    "kway_merge",
]


def kway_merge(arrays: "list[np.ndarray]") -> "np.ndarray":
    """Merge sorted int64 key arrays into one sorted array.

    No read path calls it: the scatter-gather coordinator gathers rows
    by document instead (documents are whole-shard-resident, so the
    document order is the whole merge).  It stays as the layer
    benchmark's merge kernel.  Pairwise merges proceed tournament-style
    so every element moves O(log k) times; each pairwise merge is a
    vectorized searchsorted + slot scatter, not an elementwise Python
    loop.
    """
    arrays = [a for a in arrays if a.size]
    if not arrays:
        return np.empty(0, dtype=np.int64)
    while len(arrays) > 1:
        merged = []
        for i in range(0, len(arrays) - 1, 2):
            left, right = arrays[i], arrays[i + 1]
            out = np.empty(left.size + right.size, dtype=np.int64)
            # Positions of right's elements in the merged output: their
            # own index plus how many left elements precede them.
            right_slots = (
                np.searchsorted(left, right, side="left")
                + np.arange(right.size)
            )
            mask = np.ones(out.size, dtype=bool)
            mask[right_slots] = False
            out[right_slots] = right
            out[mask] = left
            merged.append(out)
        if len(arrays) % 2:
            merged.append(arrays[-1])
        arrays = merged
    return arrays[0]


def match_test(cols: DocColumns, pres: "np.ndarray", test) -> "np.ndarray":
    """Boolean mask over ``pres``: which rows satisfy the node test?
    Names resolve through the view's name table."""
    if isinstance(test, NameTest):
        name_id = cols.names.lookup(test.name)
        if name_id is None:
            return np.zeros(pres.size, dtype=bool)
        return (cols.kind[pres] == ELEM) & (cols.name_id[pres] == name_id)
    if isinstance(test, WildcardTest):
        return cols.kind[pres] == ELEM
    if isinstance(test, TextTest):
        return cols.kind[pres] == TEXT
    if isinstance(test, AttributeTest):
        mask = cols.kind[pres] == ATTR
        if test.name != "*":
            name_id = cols.names.lookup(test.name)
            if name_id is None:
                return np.zeros(pres.size, dtype=bool)
            mask &= cols.name_id[pres] == name_id
        return mask
    if isinstance(test, (SelfTest, AnyTest)):
        return np.ones(pres.size, dtype=bool)
    raise TypeError(f"unknown node test {test!r}")


def filter_predicates(
    cols: DocColumns, pres: "np.ndarray", predicates, skip_predicate=None
) -> "np.ndarray":
    """Rows of ``pres`` on which every predicate holds, checked per
    surviving row with the naive evaluator (``skip_predicate``
    excluded — the index already answered it), in the document that
    holds it."""
    for predicate in predicates:
        if predicate is skip_predicate or pres.size == 0:
            continue
        keep = np.empty(pres.size, dtype=bool)
        for doc, offset, rows in cols.segments(pres):
            keep[rows] = [
                _predicate_holds(doc, pre - offset, predicate)
                for pre in pres[rows].tolist()
            ]
        pres = pres[keep]
    return pres


def ancestor_walk(
    cols: DocColumns,
    hits: "np.ndarray",
    steps: tuple[Step, ...],
) -> "np.ndarray":
    """The sorted unique context rows from which the operand ``steps``
    can select some row in ``hits``.

    Walks the steps backwards: the frontier is filtered by the current
    step's test/predicates, then expanded to its predecessors (parents
    for the child axis, the ancestor closure for descendant, itself for
    self).  The predecessors reached past step 0 are the contexts.
    """
    frontier = hits
    for step in reversed(steps):
        if frontier.size == 0:
            return EMPTY_PRES
        frontier = frontier[match_test(cols, frontier, step.test)]
        frontier = filter_predicates(cols, frontier, step.predicates)
        if step.axis == "child":
            frontier = cols.parents_of(frontier)
        elif step.axis == "descendant":
            frontier = cols.ancestors_of(frontier)
        # self: the frontier is its own predecessor set
    return frontier


def _first_step_mask(
    cols: DocColumns, pres: "np.ndarray", step: Step
) -> "np.ndarray":
    """Rows the absolute path's first step selects from their document
    node: its children (level 1) for the child axis, any row but a
    document node (level > 0) for descendant (self never starts an
    absolute path).  Only ``node()`` and ``.`` tests can match a
    document node, so only they pay the level check there."""
    mask = match_test(cols, pres, step.test)
    if step.axis == "child":
        return mask & (cols.level[pres] == 1)
    if isinstance(step.test, (AnyTest, SelfTest)):
        return mask & (cols.level[pres] > 0)
    return mask


def structural_verify(
    cols: DocColumns,
    candidates: "np.ndarray",
    steps: tuple[Step, ...],
    skip_predicate,
) -> "np.ndarray":
    """The candidates selectable by the absolute ``steps`` from their
    document node (``skip_predicate`` is not checked: the caller's plan
    answers it or re-checks it).

    Restricts work to the ancestor closure of the candidate batch and
    sweeps the steps *forwards* over it: ``matched`` holds the closure
    rows reachable by ``steps[:idx+1]``; a child step requires the
    parent in the previous front, a descendant step requires *some*
    strict ancestor in it (interval stabbing, no tree walking).  The
    closure is ancestor-closed, so every chain from a document node to
    a candidate lives entirely inside it.
    """
    if candidates.size == 0:
        return EMPTY_PRES
    if len(steps) == 1:
        # Single-step path (``//item[...]``): the verify touches only
        # the candidates themselves — no closure, no final intersect.
        step = steps[0]
        mask = _first_step_mask(cols, candidates, step)
        return filter_predicates(
            cols, candidates[mask], step.predicates, skip_predicate
        )
    closure = np.union1d(candidates, cols.ancestors_of(candidates))
    matched = EMPTY_PRES
    for idx, step in enumerate(steps):
        if idx == 0:
            mask = _first_step_mask(cols, closure, step)
        elif step.axis == "child":
            mask = match_test(cols, closure, step.test)
            mask &= cols.parent_in(matched, closure)
        else:
            # descendant (the planner admits no other axis here).
            mask = match_test(cols, closure, step.test)
            mask &= cols.has_ancestor_in(matched, closure)
        matched = filter_predicates(
            cols, closure[mask], step.predicates, skip_predicate
        )
        if matched.size == 0:
            return EMPTY_PRES
    return np.intersect1d(candidates, matched, assume_unique=False)
