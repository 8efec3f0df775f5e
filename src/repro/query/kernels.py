"""Vectorized structural kernels over the pre/size/level columns.

The structural operators of :mod:`repro.query.executor`:
``ancestor_walk`` finds the contexts from which an operand path selects
some index hit, ``structural_verify`` keeps the candidates an absolute
path selects.  Both operate on sorted numpy ``pre`` arrays and reduce
every axis question to integer arithmetic on the shredded columns:

* parent — one gather from the ``parent_pre`` plane;
* ancestors — O(depth) parent gathers with per-level dedup;
* "has an ancestor in S" — the containment interval
  ``anc < pre <= anc + size[anc]`` probed with ``searchsorted`` plus a
  prefix maximum over subtree ends (intervals nest, so the running max
  is exact);
* node tests — boolean masks over the ``kind``/``name_id`` columns.

Steps that carry their own nested predicates fall back to the naive
evaluator's ``_predicate_holds`` per *surviving* node — batches shrink
before the fallback runs, so the per-node work is bounded by the
candidate set, not the document.  Equivalence with
:func:`repro.query.evaluator.evaluate_path` is enforced by
``tests/query/test_vectorized_equivalence.py`` and the randomized
kernel property suite.
"""

from __future__ import annotations

import numpy as np

from ..xmldb.document import ATTR, ELEM, TEXT, Document
from ..xmldb.columns import EMPTY_PRES, DocColumns
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

    The gather half of scatter-gather: each shard returns its hits as a
    sorted key array (``global_doc_index << 40 | pre`` — documents are
    whole-shard-resident, so the per-shard arrays are already in global
    order and, placements being disjoint, duplicate-free across
    shards).  Pairwise merges proceed tournament-style so every element
    moves O(log k) times; each pairwise merge is a vectorized
    searchsorted + slot scatter, not an elementwise Python loop.
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


def match_test(
    doc: Document, cols: DocColumns, pres: "np.ndarray", test
) -> "np.ndarray":
    """Boolean mask over ``pres``: which nodes satisfy the node test?"""
    if isinstance(test, NameTest):
        name_id = doc.vocabulary.lookup(test.name)
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
            name_id = doc.vocabulary.lookup(test.name)
            if name_id is None:
                return np.zeros(pres.size, dtype=bool)
            mask &= cols.name_id[pres] == name_id
        return mask
    if isinstance(test, (SelfTest, AnyTest)):
        return np.ones(pres.size, dtype=bool)
    raise TypeError(f"unknown node test {test!r}")


def filter_predicates(
    doc: Document, pres: "np.ndarray", predicates, skip_predicate=None
) -> "np.ndarray":
    """Nodes of ``pres`` on which every predicate holds, checked per
    surviving node with the naive evaluator (``skip_predicate``
    excluded — the index already answered it)."""
    for predicate in predicates:
        if predicate is skip_predicate or pres.size == 0:
            continue
        keep = np.fromiter(
            (_predicate_holds(doc, int(pre), predicate) for pre in pres),
            dtype=bool,
            count=pres.size,
        )
        pres = pres[keep]
    return pres


def ancestor_walk(
    doc: Document,
    cols: DocColumns,
    hits: "np.ndarray",
    steps: tuple[Step, ...],
) -> "np.ndarray":
    """The sorted unique context pres from which the operand ``steps``
    can select some node in ``hits``.

    Walks the steps backwards: the frontier is filtered by the current
    step's test/predicates, then expanded to its predecessors (parents
    for the child axis, the ancestor closure for descendant, itself for
    self).  The predecessors reached past step 0 are the contexts.
    """
    frontier = hits
    for step in reversed(steps):
        if frontier.size == 0:
            return EMPTY_PRES
        frontier = frontier[match_test(doc, cols, frontier, step.test)]
        frontier = filter_predicates(doc, frontier, step.predicates)
        if step.axis == "child":
            frontier = cols.parents_of(frontier)
        elif step.axis == "descendant":
            frontier = cols.ancestors_of(frontier)
        # self: the frontier is its own predecessor set
    return frontier


def structural_verify(
    doc: Document,
    cols: DocColumns,
    candidates: "np.ndarray",
    steps: tuple[Step, ...],
    skip_predicate,
) -> "np.ndarray":
    """The candidates selectable by the absolute ``steps`` from the
    document node (``skip_predicate`` is not checked: the caller's plan
    answers it or re-checks it).

    Restricts work to the ancestor closure of the candidate batch and
    sweeps the steps *forwards* over it: ``matched`` holds the closure
    nodes reachable by ``steps[:idx+1]``; a child step requires the
    parent in the previous front, a descendant step requires *some*
    strict ancestor in it (interval stabbing, no tree walking).  The
    closure is ancestor-closed, so every chain from the document node
    to a candidate lives entirely inside it.
    """
    if candidates.size == 0:
        return EMPTY_PRES
    if len(steps) == 1:
        # Single-step path (``//item[...]``): the verify touches only
        # the candidates themselves — no closure, no final intersect.
        step = steps[0]
        mask = match_test(doc, cols, candidates, step.test)
        if step.axis == "child":
            mask &= cols.parent_pre[candidates] == 0
        else:  # descendant (self never starts an absolute path)
            mask &= candidates != 0
        return filter_predicates(
            doc, candidates[mask], step.predicates, skip_predicate
        )
    closure = np.union1d(candidates, cols.ancestors_of(candidates))
    matched = EMPTY_PRES
    for idx, step in enumerate(steps):
        mask = match_test(doc, cols, closure, step.test)
        if idx == 0:
            if step.axis == "child":
                mask &= cols.parent_pre[closure] == 0
            else:  # descendant (self never starts an absolute path)
                mask &= closure != 0
        elif step.axis == "child":
            mask &= cols.parent_in(matched, closure)
        else:
            # descendant (the planner admits no other axis here).
            mask &= cols.has_ancestor_in(matched, closure)
        matched = filter_predicates(
            doc, closure[mask], step.predicates, skip_predicate
        )
        if matched.size == 0:
            return EMPTY_PRES
    return np.intersect1d(candidates, matched, assume_unique=False)
