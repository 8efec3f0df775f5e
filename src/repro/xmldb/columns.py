"""Numpy views over the pre/size/level columns of one document or all.

The query executor (:mod:`repro.query.executor`) exchanges sorted
row-id arrays between operators, and its structural kernels reduce
containment and ancestry to integer arithmetic over these columns —
exactly what the paper's pre/size/level shredding was chosen for ("a
range encoding ... permits efficient depth-first traversal").  A
:class:`DocColumns` view materialises the Python list columns as
contiguous numpy arrays, plus the derived arrays the kernels need:

* ``parent_pre`` — the parent axis as a row pointer column
  (``parent_nid`` mapped through the nid runs below);
* ``end`` — inclusive subtree end per row (``row + size``), the right
  edge of the containment interval ``anc < row <= anc + size``;
* ``run_nid``/``run_pre``/``run_end`` — the nid→row map as *runs*,
  sorted by first nid.  A run is a maximal stretch of rows in which nid
  and row both advance by one: its first nid, its first row and its
  end nid (exclusive).  Nids are minted in pre order, so a loaded or
  reopened document is one run, and each splice adds at most two.  A
  batch of index-supplied nids maps to rows by one ``searchsorted``
  over the runs (none when there is one run) and one subtraction per
  nid — no per-nid probe into an n-long array, and O(runs) memory.

A view covers one document (:meth:`Document.columns`, rows are its
pres) or every document of a store (what :meth:`Store.columns`
caches): the documents' planes concatenated in store order, each
document starting at its row offset, ``parent_pre``, ``end`` and the
runs in store rows, and element/attribute names remapped to one
store-wide id table — the paper's single pre/size/level table of the
whole collection, over which a query is one pipeline.
Text stays per document (``text_id`` holds each document's own heap
slots); :meth:`DocColumns.segments` hands a batch of rows to the
documents that hold them, and :meth:`DocColumns.answer` turns a
query's rows into its :class:`RowColumns` answer.

A view is immutable; a document caches its own per *structural* state
and drops it on any splice/rename (text-value updates do not touch
these columns, so they keep it), and the store view is rebuilt once
any of its documents has dropped its view, or the set of documents
has changed.
"""

from __future__ import annotations

from itertools import accumulate, chain, repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .names import Vocabulary

__all__ = ["DocColumns", "EMPTY_PRES", "RowColumns", "string_equal_pres"]

#: Shared empty row-id batch (int64, the pre-plane dtype).
EMPTY_PRES = np.empty(0, dtype=np.int64)

# document.ELEM / document.TEXT (kept literal: no circular import)
_ELEM = 1
_TEXT = 2


class RowColumns(NamedTuple):
    """A query answer as columns, the paper's postings-as-id-lists
    layout carried through to results: the documents holding hits in
    store order, each with its number of hits, then every hit's
    document-local pre and its nid, one integer array each (an int64
    numpy array where the executor made it, an ``array.array`` where
    :func:`repro.wire.unpack_rows` decoded it), segment by segment in
    the same order.  A row ``(document, pre, nid)`` exists only at a
    public edge that asks for it (:meth:`rows`)."""

    documents: list
    counts: list
    pres: Sequence[int]
    nids: Sequence[int]

    def rows(self) -> list[tuple[str, int, int]]:
        """``(document, pre, nid)`` tuples, in answer order."""
        if len(self.documents) == 1:
            names = repeat(self.documents[0])
        else:
            names = chain.from_iterable(
                map(repeat, self.documents, self.counts))
        return list(zip(names, self.pres.tolist(), self.nids.tolist()))

    def split(self) -> dict[str, tuple[Sequence[int], Sequence[int]]]:
        """``{document: (pres, nids)}``, one entry per segment."""
        cuts = list(accumulate(self.counts, initial=0))
        return {
            name: (self.pres[lo:hi], self.nids[lo:hi])
            for name, lo, hi in zip(self.documents, cuts, cuts[1:])
        }

    @classmethod
    def join(
        cls, segments: Iterable[tuple[str, Sequence[int], Sequence[int]]]
    ) -> "RowColumns":
        """The answer made of ``(document, pres, nids)`` segments, in
        the order given."""
        segments = list(segments)
        if not segments:
            return cls([], [], EMPTY_PRES, EMPTY_PRES)
        names, pres, nids = zip(*segments)
        return cls(list(names), [len(part) for part in pres],
                   np.concatenate(pres), np.concatenate(nids))


class DocColumns:
    """Immutable numpy view of the structural columns of one document
    or, concatenated in store order, of several."""

    __slots__ = (
        "docs",
        "versions",
        "offsets",
        "names",
        "kind",
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

    def __init__(self, docs) -> None:
        self.docs = tuple(docs)
        #: Each document's ``column_version`` at build time, so a
        #: caller can tell whether one has changed since.
        self.versions = tuple(doc.column_version for doc in self.docs)
        self.offsets = np.zeros(len(self.docs) + 1, dtype=np.int64)
        np.cumsum([len(doc.kind) for doc in self.docs],
                  out=self.offsets[1:])
        self.n = int(self.offsets[-1])
        self.kind = self._plane("kind", np.int8)
        self.level = self._plane("level", np.int32)
        self.text_id = self._plane("text_id", np.int64)
        self.nid = self._plane("nid", np.int64)
        self.end = np.arange(self.n, dtype=np.int64) + self._plane(
            "size", np.int64
        )
        self.name_id = self._plane("name_id", np.int64)
        if len(self.docs) == 1:
            self.names = self.docs[0].vocabulary
        else:
            self.names = Vocabulary()
            bounds = self.offsets.tolist()
            for doc, lo, hi in zip(self.docs, bounds, bounds[1:]):
                # A trailing -1 maps the -1 of nameless rows to itself.
                remap = np.array(
                    [self.names.intern(name) for name in doc.vocabulary]
                    + [-1],
                    dtype=np.int64,
                )
                self.name_id[lo:hi] = remap[self.name_id[lo:hi]]
        # Rows are in pre order and nids are unique store-wide, so a run
        # ends wherever the next row's nid is not this row's plus one
        # (one run may span documents loaded back to back).
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
        parent_nid = self._plane("parent_nid", np.int64)
        inside = self._inside(parent_nid)
        pres, held = self._map(parent_nid[inside])
        self.parent_pre = np.full(self.n, -1, dtype=np.int64)
        self.parent_pre[inside] = np.where(held, pres, -1)
        self._text_pos = None

    def _plane(self, column: str, dtype) -> "np.ndarray":
        """One column of every document, concatenated in order."""
        plane = np.empty(self.n, dtype=dtype)
        bounds = self.offsets.tolist()
        for doc, lo, hi in zip(self.docs, bounds, bounds[1:]):
            plane[lo:hi] = getattr(doc, column)
        return plane

    @property
    def runs(self) -> int:
        """Number of nid runs: 1 for a document no splice has touched."""
        return self.run_nid.size

    def segments(
        self, pres: "np.ndarray"
    ) -> Iterator[tuple[object, int, slice]]:
        """``(document, offset, slice)`` for each document holding some
        of the sorted rows ``pres``: ``pres[slice]`` are its rows, and
        ``row - offset`` is a row's pre in the document.  One
        ``searchsorted`` finds every cut; documents without a row are
        skipped."""
        if len(self.docs) == 1:  # a one-document view needs no cut
            if pres.size:
                yield self.docs[0], 0, slice(0, pres.size)
            return
        cuts = np.searchsorted(pres, self.offsets).tolist()
        for doc, offset, lo, hi in zip(
            self.docs, self.offsets.tolist(), cuts, cuts[1:]
        ):
            if lo < hi:
                yield doc, offset, slice(lo, hi)

    def answer(self, pres: "np.ndarray") -> RowColumns:
        """The sorted rows ``pres`` as a query answer: cut by document
        with one ``searchsorted`` (as :meth:`segments` does), each row
        shifted to its document's pre by one vector subtraction."""
        nids = self.nid[pres]
        if len(self.docs) <= 1:  # a view of at most one document needs no cut
            held = [self.docs[0].name] if pres.size else []
            return RowColumns(held, [pres.size] if held else [], pres, nids)
        cuts = np.searchsorted(pres, self.offsets)
        bounds = cuts.tolist()
        names, counts = [], []
        for doc, lo, hi in zip(self.docs, bounds, bounds[1:]):
            if lo < hi:
                names.append(doc.name)
                counts.append(hi - lo)
        local = pres
        if bounds[1] < bounds[-1]:  # some hit lies past the first document
            local = pres - self.offsets[:-1].repeat(cuts[1:] - cuts[:-1])
        return RowColumns(names, counts, local, nids)

    def text_positions(self) -> "np.ndarray":
        """Sorted rows of the TEXT nodes (lazy, cached).

        Lets batch verification slice "the text descendants of a row"
        out with two ``searchsorted`` probes over the subtree interval
        instead of iterating the subtree.
        """
        if self._text_pos is None:
            self._text_pos = np.flatnonzero(self.kind == _TEXT).astype(
                np.int64
            )
        return self._text_pos

    def _inside(self, nids: "np.ndarray") -> "np.ndarray":
        """Mask of the nids in ``[first run's nid, last run's end)``."""
        if self.n == 0:
            return np.zeros(nids.size, dtype=bool)
        return (nids >= self.run_nid[0]) & (nids < self.run_end[-1])

    def _map(self, nids: "np.ndarray") -> tuple["np.ndarray", "np.ndarray"]:
        """``(rows, held)`` of ``nids``, all of them :meth:`_inside`:
        each nid's row counted from the last run starting at or below
        it, and whether that run reaches it (False in a gap between
        runs, where the row means nothing).  A view of one run (a
        document no splice has touched) skips the ``searchsorted``: its
        run is the scalar 0, and the same formula broadcasts."""
        run = 0
        if self.run_nid.size != 1:
            run = np.searchsorted(self.run_nid, nids, side="right") - 1
        pres = nids - self.run_nid[run] + self.run_pre[run]
        return pres, nids < self.run_end[run]

    def pres_of_nids(
        self,
        nids: "np.ndarray",
        test: "Callable[[np.ndarray], np.ndarray] | None" = None,
    ) -> "np.ndarray":
        """Sorted rows of the view's share of one index scan that pass
        ``test``: ``nids`` is an int64 array of distinct nids in any
        order, and those of documents outside the view (or deleted)
        simply do not resolve — the nid space is store-wide unique.
        ``test`` (all rows pass without one) maps an array of the
        view's rows, in no particular order, to a boolean mask over it;
        the executor passes the node tests of the walk above the scan.

        A scan spans every document; a view over all of them maps the
        whole scan by arithmetic over the merged runs, and a
        one-document view first drops the nids outside its nid span
        with two comparisons, so it maps its own share only.  The test
        sees only rows of held nids, and runs before the sort, so only
        its survivors are sorted: distinct nids map to distinct rows,
        so a plain sort restores the batch invariant.
        """
        if nids.size == 0 or self.n == 0:
            return EMPTY_PRES
        pres, held = self._map(nids[self._inside(nids)])
        pres = pres[held]
        if test is not None:
            pres = pres[test(pres)]
        pres.sort()
        return pres

    # ------------------------------------------------------------------
    # Structural primitives
    # ------------------------------------------------------------------

    def parents_of(self, pres: "np.ndarray") -> "np.ndarray":
        """Unique parent rows (document-node parents drop out as -1)."""
        if pres.size == 0:
            return EMPTY_PRES
        parents = self.parent_pre[pres]
        parents = parents[parents >= 0]
        return np.unique(parents)

    def ancestors_of(self, pres: "np.ndarray") -> "np.ndarray":
        """Sorted unique rows of all strict ancestors of ``pres``.

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
        ``anc < row <= end[anc]`` — evaluated with one ``searchsorted``
        plus a running maximum over subtree ends: because subtree
        intervals nest or are disjoint (documents included), *some*
        anchor at or before ``row`` contains it iff the prefix-max end
        at ``row``'s insertion point reaches ``row``.
        """
        result = np.zeros(pres.size, dtype=bool)
        if anchors.size == 0 or pres.size == 0:
            return result
        prefix_end = np.maximum.accumulate(self.end[anchors])
        idx = np.searchsorted(anchors, pres, side="left")  # anchors < row
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
    container = cols.kind[pres] <= _ELEM  # DOC | ELEM
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


def string_equal_pres(
    cols: DocColumns,
    nids: "np.ndarray",
    value: str,
    test: "Callable[[np.ndarray], np.ndarray] | None" = None,
) -> "np.ndarray":
    """Rows that pass ``test`` and whose XDM string value equals
    ``value``, out of the hash bucket ``nids`` of ``value``.

    The one string-equality check, shared by
    ``IndexManager.lookup_string`` and the executor's string
    ``IndexLookup``: nid→row mapping and the test via
    ``pres_of_nids``, then collision verification of the survivors per
    document segment — one batch heap read
    (:meth:`Document.read_texts`) for every candidate whose value is
    one slot, ``string_value`` for the multi-text containers only, and
    for every candidate of a bucket of at most :data:`SMALL_BUCKET`.
    """
    pres = cols.pres_of_nids(nids, test)
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
