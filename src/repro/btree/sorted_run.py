"""A sorted ``(key, nid)`` set: frozen columns plus a copy-on-write delta.

Inside MonetDB the paper's "(B-tree) index, constructed on the hash
values" (Section 3) and its "clustered (b-tree) index ... on top of the
typed values" (Section 4) are sorted BATs.  :class:`SortedRun` is that
layout: an immutable **base run** of two aligned numpy columns —
``keys`` and ``nids`` (int64), sorted by ``(key, nid)`` — and a small
**delta**, a copy-on-write :class:`~repro.btree.bplus.BPlusTree` that
maps an entry to ``True`` (inserted since the base was built) or
``False`` (a tombstone over a base entry).  An index scan is two
``searchsorted`` probes and a slice of ``nids``; the delta's range is
merged in only while the delta is non-empty.

Two invariants tie the halves together: an inserted delta entry is
never in the base, and a tombstone always is.  So the set's size is
``len(base) + inserts - tombstones`` and a merge never has to decide
between two copies of one entry.

**Concurrency model.**  The base columns are never written after they
are built and the delta is path-copying, so one ``(keys, nids, delta
snapshot, size)`` tuple — a :class:`RunSnapshot` — is a complete
immutable version of the set.  Every mutation publishes a fresh one
with a single reference assignment; :meth:`SortedRun.snapshot` hands
out the current one in O(1), and every read of the live run goes
through the snapshot current at the call.  :meth:`SortedRun.fold`
merges the delta into a new base and starts an empty delta; snapshots
taken before keep the old columns and the old delta root alive until
their last holder lets go (see ``docs/concurrency.md``).

The key column's dtype is fixed per run: ``<u4`` for the hash ``H``,
``f8`` for ``xs:double``, ``object`` for keys numpy cannot hold exactly
(``Decimal``, unbounded ``int``) — those are compared as the Python
objects they are, never rounded into a float.
"""

from __future__ import annotations

import operator
from itertools import chain, repeat
from math import inf
from typing import Any, Iterator, Sequence

import numpy as np

from .bplus import BPlusTree, TreeSnapshot

__all__ = ["RunSnapshot", "SortedRun"]


def _sorted_columns(
    base: tuple["np.ndarray", "np.ndarray"], keys: Sequence, nids: Sequence
) -> tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
    """The ``base`` columns and the entries ``zip(keys, nids)`` as one
    pair of columns in ``(key, nid)`` order, plus the mask of positions
    whose entry equals its predecessor's."""
    added = np.empty(len(keys), dtype=base[0].dtype)
    added[:] = keys  # element-wise: object keys stay the objects given
    keys = np.concatenate((base[0], added))
    nids = np.concatenate((base[1], np.asarray(nids, dtype=np.int64)))
    order = np.lexsort((nids, keys))
    keys, nids = keys[order], nids[order]
    repeat = np.zeros(len(keys), dtype=bool)
    repeat[1:] = (keys[1:] == keys[:-1]) & (nids[1:] == nids[:-1])
    return keys, nids, repeat


class RunSnapshot:
    """One immutable version of a :class:`SortedRun`.  Holds every read
    algorithm: the live run answers reads through its current one."""

    __slots__ = ("base_keys", "base_nids", "delta", "_size")

    def __init__(
        self,
        base_keys: "np.ndarray",
        base_nids: "np.ndarray",
        delta: TreeSnapshot,
        size: int,
    ):
        self.base_keys = base_keys
        self.base_nids = base_nids
        self.delta = delta
        self._size = size

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # Positions in the base run
    # ------------------------------------------------------------------

    def _key_position(self, key: Any, side: str) -> int:
        """Where ``key`` sorts in the key column.  The probe is made in
        the column's own dtype: against a bare Python int numpy would
        cast the whole ``<u4`` column per call."""
        keys = self.base_keys
        return int(keys.searchsorted(keys.dtype.type(key), side))

    def _group(self, key: Any) -> tuple[int, int]:
        """Base positions ``[lo, hi)`` of the entries under ``key``
        (empty, at its insertion point, when there are none)."""
        lo = self._key_position(key, "left")
        if lo == len(self.base_keys) or self.base_keys[lo] != key:
            return lo, lo
        return lo, self._key_position(key, "right")

    def _position(self, entry: tuple, side: str) -> int:
        """Where ``entry`` sorts in the base: before (``"left"``) or
        after (``"right"``) an equal base entry."""
        lo, hi = self._group(entry[0])
        return lo + int(self.base_nids[lo:hi].searchsorted(entry[1], side))

    def in_base(self, entry: tuple) -> bool:
        lo, hi = self._group(entry[0])
        if lo == hi:
            return False
        nids = self.base_nids
        at = lo + int(nids[lo:hi].searchsorted(entry[1]))
        return bool(at < hi and nids[at] == entry[1])

    def __contains__(self, entry: tuple) -> bool:
        live = self.delta.get(entry)
        return self.in_base(entry) if live is None else live

    # ------------------------------------------------------------------
    # Cursors (Python tuples: point lookups, verification, tests)
    # ------------------------------------------------------------------

    def _base_blocks(self, lo: int, hi: int, reverse: bool) -> Iterator[zip]:
        """Base positions ``[lo, hi)`` as blocks of entry tuples, both
        the blocks and their entries in cursor order."""
        keys, nids = self.base_keys, self.base_nids
        block = 1024  # tuples made per step: top_values(3) pays for one
        if reverse:
            for stop in range(hi, lo, -block):
                start = max(lo, stop - block)
                yield zip(
                    keys[start:stop][::-1].tolist(),
                    nids[start:stop][::-1].tolist(),
                )
        else:
            for start in range(lo, hi, block):
                stop = min(hi, start + block)
                yield zip(keys[start:stop].tolist(), nids[start:stop].tolist())

    def _entries(
        self,
        lo: int,
        hi: int,
        changes: Iterator[tuple[tuple, bool]],
        reverse: bool = False,
    ) -> Iterator[tuple]:
        """Base positions ``[lo, hi)`` merged with the delta ``changes``
        over the same interval (both in cursor order): the base blocks
        chained while the delta has nothing there."""
        blocks = self._base_blocks(lo, hi, reverse)
        first = next(changes, None)
        if first is None:
            return chain.from_iterable(blocks)
        return self._merged(blocks, first, changes, reverse)

    @staticmethod
    def _merged(
        blocks: Iterator[zip],
        change: tuple[tuple, bool] | None,
        changes: Iterator[tuple[tuple, bool]],
        reverse: bool,
    ) -> Iterator[tuple]:
        """Block by block: the changes up to the block's last entry are
        applied to it — a tombstone removes the base entry it equals,
        inserts are sorted in — and blocks without changes pass through
        untouched.  Inserts past the last block follow it."""
        ahead = operator.gt if reverse else operator.lt
        for block in blocks:
            entries = list(block)
            added: list[tuple] = []
            dropped: set[tuple] = set()
            while change is not None and not ahead(entries[-1], change[0]):
                if change[1]:
                    added.append(change[0])
                else:
                    dropped.add(change[0])
                change = next(changes, None)
            if dropped:
                entries = [entry for entry in entries if entry not in dropped]
            if added:
                entries = sorted(entries + added, reverse=reverse)
            yield from entries
        while change is not None:
            yield change[0]
            change = next(changes, None)

    def keys(self) -> Iterator[tuple]:
        """Every ``(key, nid)`` entry in ascending order."""
        return self._entries(0, len(self.base_keys), self.delta.items())

    def items(self) -> Iterator[tuple[tuple, None]]:
        """:meth:`keys` as ``(entry, None)`` pairs (the B+-tree's
        cursor protocol, which the point lookups consume)."""
        return zip(self.keys(), repeat(None))

    def items_reversed(self) -> Iterator[tuple[tuple, None]]:
        entries = self._entries(
            0, len(self.base_keys), self.delta.items_reversed(), reverse=True
        )
        return zip(entries, repeat(None))

    def range(
        self,
        low: tuple | None = None,
        high: tuple | None = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[tuple[tuple, None]]:
        """Entries between two composite ``(key, nid)`` bounds
        (``None`` = unbounded), as ``(entry, None)`` pairs."""
        lo = 0
        if low is not None:
            lo = self._position(low, "left" if include_low else "right")
        hi = len(self.base_keys)
        if high is not None:
            hi = self._position(high, "right" if include_high else "left")
        changes = self.delta.range(low, high, include_low, include_high)
        return zip(self._entries(lo, hi, changes), repeat(None))

    # ------------------------------------------------------------------
    # Column reads (the scan path: no per-entry Python objects)
    # ------------------------------------------------------------------

    def nids_between(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> "np.ndarray":
        """nids of the entries whose *key* lies between ``low`` and
        ``high`` (``None`` = unbounded): an int64 array in no
        particular order — two ``searchsorted`` and a slice of the nid
        column, plus the delta's entries over the same keys while
        there are any."""
        lo = 0
        if low is not None:
            lo = self._key_position(low, "left" if include_low else "right")
        hi = len(self.base_keys)
        if high is not None:
            hi = self._key_position(high, "right" if include_high else "left")
        nids = self.base_nids[lo:hi]
        if not len(self.delta):
            return nids
        # (key,) sorts before every (key, nid) and (key, inf) after.
        if low is not None:
            low = (low,) if include_low else (low, inf)
        if high is not None:
            high = (high, inf) if include_high else (high,)
        changes = list(self.delta.range(low, high))
        added = [entry[1] for entry, live in changes if live]
        dropped = {entry for entry, live in changes if not live}
        if dropped:
            # Every tombstone over these keys is in the slice; where a
            # tombstoned nid also sits under another key, match keys.
            hit = np.flatnonzero(np.isin(nids, [nid for _key, nid in dropped]))
            if len(hit) != len(dropped):
                held = zip(
                    self.base_keys[lo:hi][hit].tolist(), nids[hit].tolist()
                )
                hit = hit[[entry in dropped for entry in held]]
            nids = np.delete(nids, hit)
        if added:
            nids = np.concatenate((nids, np.asarray(added, dtype=np.int64)))
        return nids

    def columns(self) -> tuple["np.ndarray", "np.ndarray"]:
        """The whole set as sorted ``(keys, nids)`` columns: the base
        itself while the delta is empty, else base and delta merged
        (what :meth:`SortedRun.fold` installs)."""
        base = (self.base_keys, self.base_nids)
        if not len(self.delta):
            return base
        changed = zip(*(entry for entry, _live in self.delta.items()))
        keys, nids, repeat = _sorted_columns(base, *changed)
        # A tombstone lands next to the base entry it cancels (an
        # insert never equals a base entry): drop both of each pair.
        keep = ~repeat
        keep[:-1] &= ~repeat[1:]
        return keys[keep], nids[keep]


class SortedRun:
    """A mutable sorted set of ``(key, nid)`` entries (module docstring).

    Offers what the value indices used of their B+-tree — ``insert``,
    ``delete``, ``keys``, ``range``, ``items_reversed``, ``snapshot``,
    ``check_invariants`` — plus the column operations that replace
    per-entry work: :meth:`nids_between` (scan), :meth:`merge` (bulk
    build), :meth:`remove_nids` (unload) and :meth:`fold`.  Writers are
    serialised by the caller; readers need no lock.

    Args:
        dtype: numpy dtype of the key column.
        order: Node order of the delta tree.
    """

    def __init__(self, dtype: Any, order: int = 64):
        self._order = order
        self._rebase(np.empty(0, dtype=dtype), np.empty(0, dtype=np.int64))

    def _publish(
        self, base_keys: "np.ndarray", base_nids: "np.ndarray", size: int
    ) -> None:
        """Install the next version: one reference assignment."""
        self._state = RunSnapshot(
            base_keys, base_nids, self._delta.snapshot(), size
        )

    def _rebase(self, keys: "np.ndarray", nids: "np.ndarray") -> None:
        """Publish ``(keys, nids)`` as the base run under an empty
        delta.  Scans hand out slices of the columns, so they are
        frozen."""
        keys.setflags(write=False)
        nids.setflags(write=False)
        self._delta = BPlusTree(order=self._order)
        self._publish(keys, nids, len(keys))

    def snapshot(self) -> RunSnapshot:
        """The current immutable version, O(1)."""
        return self._state

    # ------------------------------------------------------------------
    # Reads: answered by the version current at the call
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._state)

    def __contains__(self, entry: tuple) -> bool:
        return entry in self._state

    def keys(self) -> Iterator[tuple]:
        return self._state.keys()

    def items(self) -> Iterator[tuple[tuple, None]]:
        return self._state.items()

    def items_reversed(self) -> Iterator[tuple[tuple, None]]:
        return self._state.items_reversed()

    def range(self, *bounds, **inclusion) -> Iterator[tuple[tuple, None]]:
        return self._state.range(*bounds, **inclusion)

    def nids_between(self, *bounds, **inclusion) -> "np.ndarray":
        return self._state.nids_between(*bounds, **inclusion)

    def columns(self) -> tuple["np.ndarray", "np.ndarray"]:
        return self._state.columns()

    # ------------------------------------------------------------------
    # Single-entry writes (the delta)
    # ------------------------------------------------------------------

    def insert(self, entry: tuple) -> bool:
        """Add ``entry``; returns False if it was already present."""
        state = self._state
        # The two invariants make base membership decide which delta
        # change can exist, so one tree operation both tests and acts.
        if state.in_base(entry):
            added = self._delta.delete(entry)  # lift its tombstone
        else:
            added = self._delta.insert(entry, True)
        if added:
            self._publish(state.base_keys, state.base_nids, len(state) + 1)
        return added

    def delete(self, entry: tuple) -> bool:
        """Remove ``entry``; returns False if it was absent."""
        state = self._state
        if state.in_base(entry):
            removed = self._delta.insert(entry, False)  # a tombstone
        else:
            removed = self._delta.delete(entry)
        if removed:
            self._publish(state.base_keys, state.base_nids, len(state) - 1)
        return removed

    # ------------------------------------------------------------------
    # Column writes (each builds a new base under an empty delta)
    # ------------------------------------------------------------------

    def fold(self) -> None:
        """Merge the delta into a new base run.  Versions handed out
        before keep reading the columns and delta root they hold."""
        if len(self._state.delta):
            self._rebase(*self._state.columns())

    def merge(self, keys: Sequence, nids: Sequence[int]) -> None:
        """Add the entries ``zip(keys, nids)`` (any order) with one
        sort of the columns — index creation, reopen, a further
        document.  Raises ``ValueError`` if an entry is already present
        or given twice."""
        keys, nids, repeat = _sorted_columns(self.columns(), keys, nids)
        if repeat.any():
            raise ValueError("merge requires entries that are not present")
        self._rebase(keys, nids)

    def remove_nids(self, nids: Sequence[int]) -> int:
        """Drop every entry whose nid is in ``nids`` with one mask over
        the nid column; returns the number dropped."""
        keys, held = self.columns()
        gone = np.isin(held, np.asarray(nids, dtype=np.int64))
        removed = int(np.count_nonzero(gone))
        if removed:
            self._rebase(keys[~gone], held[~gone])
        return removed

    # ------------------------------------------------------------------
    # Test support
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Validate the base order, the delta tree, the two invariants
        that tie them together, and the size counter."""
        state = self._state
        keys, nids = state.base_keys, state.base_nids
        assert len(keys) == len(nids), "columns out of step"
        ascending = (keys[1:] > keys[:-1]) | (
            (keys[1:] == keys[:-1]) & (nids[1:] > nids[:-1])
        )
        assert ascending.all(), "base run out of order"
        self._delta.check_invariants()
        inserts = 0
        for entry, live in state.delta.items():
            assert state.in_base(entry) != live, "delta disagrees with base"
            inserts += live
        tombstones = len(state.delta) - inserts
        assert len(state) == len(keys) + inserts - tombstones, "size drift"
        scanned = 0
        previous = None
        for entry in state.keys():  # streamed: verify() runs on full indices
            assert previous is None or previous < entry, "scan out of order"
            previous = entry
            scanned += 1
        assert scanned == len(state), "scan incomplete"
