"""Numpy views over a document's pre/size/level columns.

The query executor (:mod:`repro.query.executor`) exchanges sorted
``pre`` row-id arrays between operators, and its structural kernels
reduce containment and ancestry to integer arithmetic over these
columns — exactly what the paper's pre/size/level shredding was
chosen for ("a range encoding ... permits efficient depth-first
traversal").  :class:`DocColumns` materialises the Python list columns
of one :class:`~repro.xmldb.document.Document` as contiguous numpy
arrays, plus the derived arrays the kernels need:

* ``parent_pre`` — the parent axis as a pre-plane pointer column
  (``parent_nid`` mapped through the nid runs below);
* ``end`` — inclusive subtree end per node (``pre + size``), the right
  edge of the containment interval ``anc_pre < pre <= anc_pre + size``;
* ``run_nid``/``run_pre``/``run_end`` — the nid→pre map as *runs*,
  sorted by first nid.  A run is a maximal stretch of rows in which nid
  and pre both advance by one: its first nid, its first pre and its
  end nid (exclusive).  Nids are minted in pre order, so a loaded or
  reopened document is one run, and each splice adds at most two.  A
  batch of index-supplied nids maps to pres by one ``searchsorted``
  over the runs and one subtraction per nid — no per-nid probe into an
  n-long array, and O(runs) memory.

A ``DocColumns`` snapshot is immutable; the owning document caches one
per *structural* state and drops it on any splice/rename (text-value
updates do not touch these columns, so they keep the cache).  This is
the per-document contiguous pre-range cache that keeps scatter into
the multi-document store array-shaped.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DocColumns", "EMPTY_PRES"]

#: Shared empty row-id batch (int64, the pre-plane dtype).
EMPTY_PRES = np.empty(0, dtype=np.int64)


class DocColumns:
    """Immutable numpy snapshot of one document's structural columns."""

    __slots__ = (
        "kind",
        "size",
        "level",
        "name_id",
        "text_id",
        "nid",
        "parent_pre",
        "end",
        "run_nid",
        "run_pre",
        "run_end",
        "n",
        "_text_pos",
    )

    def __init__(self, doc) -> None:
        self.kind = np.asarray(doc.kind, dtype=np.int8)
        self.size = np.asarray(doc.size, dtype=np.int64)
        self.level = np.asarray(doc.level, dtype=np.int32)
        self.name_id = np.asarray(doc.name_id, dtype=np.int64)
        self.text_id = np.asarray(doc.text_id, dtype=np.int64)
        self.nid = np.asarray(doc.nid, dtype=np.int64)
        self.n = len(doc.kind)
        self.end = np.arange(self.n, dtype=np.int64) + self.size
        # Rows are in pre order, so a run ends wherever the next row's
        # nid is not this row's plus one.
        nid = self.nid
        starts = np.flatnonzero(nid[1:] != nid[:-1] + 1) + 1
        if self.n:
            starts = np.concatenate(([0], starts))
        lengths = np.diff(starts, append=self.n)
        first = nid[starts]
        order = np.argsort(first)
        self.run_nid = first[order]
        self.run_pre = starts[order]
        self.run_end = self.run_nid + lengths[order]
        parent_nid = np.asarray(doc.parent_nid, dtype=np.int64)
        inside = self._inside(parent_nid)
        pres, held = self._map(parent_nid[inside])
        self.parent_pre = np.full(self.n, -1, dtype=np.int64)
        self.parent_pre[inside] = np.where(held, pres, -1)
        self._text_pos = None

    @property
    def runs(self) -> int:
        """Number of nid runs: 1 for a document no splice has touched."""
        return self.run_nid.size

    def text_positions(self) -> "np.ndarray":
        """Sorted pres of the document's TEXT nodes (lazy, cached).

        Lets batch verification slice "the text descendants of pre"
        out with two ``searchsorted`` probes over the subtree interval
        instead of iterating the subtree.
        """
        if self._text_pos is None:
            self._text_pos = np.flatnonzero(self.kind == 2).astype(
                np.int64
            )  # 2 == document.TEXT (kept literal: no circular import)
        return self._text_pos

    def _inside(self, nids: "np.ndarray") -> "np.ndarray":
        """Mask of the nids in ``[first run's nid, last run's end)``."""
        if self.n == 0:
            return np.zeros(nids.size, dtype=bool)
        return (nids >= self.run_nid[0]) & (nids < self.run_end[-1])

    def _map(self, nids: "np.ndarray") -> tuple["np.ndarray", "np.ndarray"]:
        """``(pres, held)`` of ``nids``, all of them :meth:`_inside`:
        each nid's pre counted from the last run starting at or below
        it, and whether that run reaches it (False in a gap between
        runs, where the pre means nothing)."""
        run = np.searchsorted(self.run_nid, nids, side="right") - 1
        pres = nids - self.run_nid[run] + self.run_pre[run]
        return pres, nids < self.run_end[run]

    def pres_of_nids(self, nids: "np.ndarray") -> "np.ndarray":
        """Sorted pres of this document's share of one index scan:
        ``nids`` is an int64 array of distinct nids in any order, and
        those of other documents simply do not resolve (the nid space
        is store-wide unique).

        A scan spans every document and one query hands the same scan
        to each of them, so nids outside this document's nid span are
        dropped with two comparisons first: each document maps its own
        share, not all of it.  Distinct nids map to distinct pres, so a
        plain sort restores the batch invariant.
        """
        if nids.size == 0 or self.n == 0:
            return EMPTY_PRES
        pres, held = self._map(nids[self._inside(nids)])
        pres = pres[held]
        pres.sort()
        return pres

    # ------------------------------------------------------------------
    # Structural primitives
    # ------------------------------------------------------------------

    def parents_of(self, pres: "np.ndarray") -> "np.ndarray":
        """Unique parent pres (document-node parents drop out as -1)."""
        if pres.size == 0:
            return EMPTY_PRES
        parents = self.parent_pre[pres]
        parents = parents[parents >= 0]
        return np.unique(parents)

    def ancestors_of(self, pres: "np.ndarray") -> "np.ndarray":
        """Sorted unique pres of all strict ancestors of ``pres``.

        Climbs the ``parent_pre`` plane one level per iteration with
        per-level dedup, so shared chains are walked once — O(depth)
        array operations total.
        """
        if pres.size == 0:
            return EMPTY_PRES
        collected = []
        cur = self.parents_of(pres)
        while cur.size:
            collected.append(cur)
            cur = self.parents_of(cur)
        if not collected:
            return EMPTY_PRES
        return np.unique(np.concatenate(collected))

    def has_ancestor_in(
        self, anchors: "np.ndarray", pres: "np.ndarray"
    ) -> "np.ndarray":
        """Boolean mask: does ``pres[i]`` have a strict ancestor in
        ``anchors`` (sorted)?  Ancestry is pure interval arithmetic —
        ``anc < pre <= anc + size[anc]`` — evaluated with one
        ``searchsorted`` plus a running maximum over subtree ends:
        because subtree intervals nest or are disjoint, *some* anchor
        at or before ``pre`` contains it iff the prefix-max end at
        ``pre``'s insertion point reaches ``pre``.
        """
        result = np.zeros(pres.size, dtype=bool)
        if anchors.size == 0 or pres.size == 0:
            return result
        prefix_end = np.maximum.accumulate(self.end[anchors])
        idx = np.searchsorted(anchors, pres, side="left")  # anchors < pre
        nonzero = idx > 0
        result[nonzero] = prefix_end[idx[nonzero] - 1] >= pres[nonzero]
        return result

    def parent_in(
        self, anchors: "np.ndarray", pres: "np.ndarray"
    ) -> "np.ndarray":
        """Boolean mask: is ``parent(pres[i])`` a member of sorted
        ``anchors``?"""
        if anchors.size == 0 or pres.size == 0:
            return np.zeros(pres.size, dtype=bool)
        parents = self.parent_pre[pres]
        pos = np.searchsorted(anchors, parents)
        pos_clipped = np.minimum(pos, anchors.size - 1)
        return (anchors[pos_clipped] == parents) & (parents >= 0)
