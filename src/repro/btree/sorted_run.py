"""A sorted ``(key, nid)`` set: frozen base columns plus frozen delta columns.

Inside MonetDB the paper's "(B-tree) index, constructed on the hash
values" (Section 3) and its "clustered (b-tree) index ... on top of the
typed values" (Section 4) are sorted BATs.  :class:`SortedRun` is that
layout: an immutable **base run** of two aligned numpy columns —
``keys`` and ``nids`` (int64), sorted by ``(key, nid)`` — and a small
**delta** of three more frozen columns: ``dead``, the sorted base
positions of the entries deleted since the base was built, and
``ins_keys``/``ins_nids``, the entries inserted since, in ``(key, nid)``
order.  No inserted entry is in the base, so the set's size is
``len(base) - len(dead) + len(inserts)`` and a merge never has to decide
between two copies of one entry.

An index scan is two ``searchsorted`` probes and a slice of the base's
nid column.  While the delta is non-empty the slice loses the dead
positions inside it (two probes on ``dead``) and gains the inserted
nids between two probes on ``ins_keys``; no step costs a Python object
per entry.  The cursors merge the same way, one base block of 1,024
entries at a time, so a cursor that stops early pays only for the
blocks it read.

**Writes.**  :meth:`SortedRun.apply` takes one batch of inserts and
deletes — one index's share of one update — and publishes once.  An
update's few entries are settled one by one in Python after one
vectorised key search; a bulk batch runs as whole-column steps.  Either
way each next delta column is built in one pass (``_splice``: the
dropped positions out, the new entries in).

**Concurrency model.**  No column is written after it is built, so one
``(base, dead, inserts)`` tuple — a :class:`RunSnapshot` — is a complete
immutable version of the set.  Every write publishes a fresh one with a
single reference assignment; :meth:`SortedRun.snapshot` hands out the
current one in O(1), and every read of the live run goes through the
snapshot current at the call.  :meth:`SortedRun.fold` merges the delta
into a new base and starts an empty delta; snapshots taken before keep
the old columns alive until their last holder lets go (see
``docs/concurrency.md``).

The key column's dtype is fixed per run: ``<u4`` for the hash ``H``,
``f8`` for ``xs:double``, ``object`` for keys numpy cannot hold exactly
(``Decimal``, unbounded ``int``) — those are compared as the Python
objects they are, never rounded into a float.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Iterator, Sequence

import numpy as np

__all__ = ["RunSnapshot", "SortedRun"]

#: The ``dead`` column of a run with no deletes.
_NO_POSITIONS = np.empty(0, dtype=np.int64)
_NO_POSITIONS.setflags(write=False)


def _column(values: Sequence, dtype: Any) -> "np.ndarray":
    """``values`` as a column of ``dtype``, element by element: object
    keys stay the objects given, and a hash outside ``<u4`` raises
    instead of wrapping."""
    column = np.empty(len(values), dtype=dtype)
    column[:] = values
    return column


def _sorted_columns(
    base: tuple["np.ndarray", "np.ndarray"], keys: Sequence, nids: Sequence
) -> tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
    """The ``base`` columns and the entries ``zip(keys, nids)`` as one
    pair of columns in ``(key, nid)`` order, plus the mask of positions
    whose entry equals its predecessor's."""
    keys = np.concatenate((base[0], _column(keys, base[0].dtype)))
    nids = np.concatenate((base[1], np.asarray(nids, dtype=np.int64)))
    order = np.lexsort((nids, keys))
    keys, nids = keys[order], nids[order]
    repeat_ = np.zeros(len(keys), dtype=bool)
    repeat_[1:] = (keys[1:] == keys[:-1]) & (nids[1:] == nids[:-1])
    return keys, nids, repeat_


#: A batch with more entries than this works on whole arrays; a smaller
#: one (a single node's ``depth+1`` entries) settles each entry in
#: Python, where numpy's per-call cost would dominate.  The same bound
#: splits :func:`_find` and :func:`_splice`, which a fold also runs.
_FEW = 64

#: Base entries a cursor merges per step.
_BLOCK = 1024


def _find(
    keys: "np.ndarray",
    nids: "np.ndarray",
    find_keys: "np.ndarray",
    find_nids: "np.ndarray",
) -> tuple["np.ndarray", "np.ndarray"]:
    """Where each entry ``(find_keys[i], find_nids[i])`` sorts in the
    ``(key, nid)``-sorted columns (before an equal entry), and whether
    it is there.  Two ``searchsorted`` on the key column give every
    entry's key group; the nid is then found inside the group."""
    if not len(keys):
        count = len(find_keys)
        return np.zeros(count, dtype=np.intp), np.zeros(count, dtype=bool)
    lo = keys.searchsorted(find_keys, "left")
    hi = keys.searchsorted(find_keys, "right")
    if len(find_keys) <= _FEW:
        at, found = [], []
        for start, stop, nid in zip(lo.tolist(), hi.tolist(), find_nids.tolist()):
            if stop - start > 1:
                start += int(nids[start:stop].searchsorted(nid))
            elif stop > start and nids.item(start) < nid:
                start += 1
            at.append(start)
            found.append(start < stop and nids.item(start) == nid)
        return np.array(at, dtype=np.intp), np.array(found, dtype=bool)
    # Many entries: bisect every key group in step.
    last, stop = len(nids) - 1, hi
    while np.count_nonzero(lo < hi):
        mid = (lo + hi) >> 1
        # Where a search is over, mid is lo == hi (maybe len(nids)):
        # clamp the probe, and keep lo there with the min below.
        ahead = nids[np.minimum(mid, last)] < find_nids
        lo = np.where(ahead, np.minimum(mid + 1, hi), lo)
        hi = np.where(ahead, hi, mid)
    return lo, (lo < stop) & (nids[np.minimum(lo, last)] == find_nids)


def _hits(column: "np.ndarray", at: "np.ndarray", values) -> "np.ndarray":
    """Whether ``column[at] == values`` elementwise (``at`` may be
    ``len(column)``: a miss)."""
    if not len(column):
        return np.zeros(len(at), dtype=bool)
    return (column[np.minimum(at, len(column) - 1)] == values) & (at < len(column))


def _splice(
    columns: tuple["np.ndarray", ...],
    drop: Sequence[int],
    at: Sequence[int],
    values: tuple["np.ndarray", ...],
) -> list["np.ndarray"]:
    """New aligned ``columns``: without the positions ``drop``, and with
    each column's ``values[i]`` placed before position ``at[i]`` (both
    ascending).  A few changes join the old columns' stretches between
    them and the new values with one ``np.concatenate`` per column;
    many are one ``np.delete`` and one ``np.insert``."""
    if len(drop) + len(at) > _FEW:
        drop = np.asarray(drop, dtype=np.intp)
        at = np.asarray(at, dtype=np.intp) - drop.searchsorted(at)
        return [
            np.insert(np.delete(column, drop), at, new)
            for column, new in zip(columns, values)
        ]
    if not len(drop) and not len(at):
        return list(columns)
    # The stretches as (start, stop, value index or -1 for none).
    drop, at = list(drop), list(at)
    stretches = []
    start = d = i = 0
    while d < len(drop) or i < len(at):
        if i < len(at) and (d == len(drop) or at[i] <= drop[d]):
            stretches.append((start, at[i], i))
            start = at[i]
            i += 1
        else:
            stretches.append((start, drop[d], -1))
            start = drop[d] + 1
            d += 1
    spliced = []
    for column, new in zip(columns, values):
        pieces = []
        for begin, end, value in stretches:
            pieces.append(column[begin:end])
            if value >= 0:
                pieces.append(new[value : value + 1])
        pieces.append(column[start:])
        spliced.append(np.concatenate(pieces))
    return spliced


def _key_position(keys: "np.ndarray", key: Any, side: str) -> int:
    """Where ``key`` sorts in a key column.  The probe is made in the
    column's own dtype: against a bare Python int numpy would cast the
    whole ``<u4`` column per call."""
    return int(keys.searchsorted(keys.dtype.type(key), side))


def _key_bounds(
    keys: "np.ndarray",
    low: Any,
    high: Any,
    include_low: bool,
    include_high: bool,
) -> tuple[int, int]:
    """Positions ``[lo, hi)`` of the keys between ``low`` and ``high``
    (``None`` = unbounded)."""
    lo = 0
    if low is not None:
        lo = _key_position(keys, low, "left" if include_low else "right")
    hi = len(keys)
    if high is not None:
        hi = _key_position(keys, high, "right" if include_high else "left")
    return lo, hi


def _entry_position(
    keys: "np.ndarray", nids: "np.ndarray", entry: tuple, side: str
) -> int:
    """Where one ``(key, nid)`` entry sorts in a pair of columns: the
    scalar form of :func:`_find`."""
    key = keys.dtype.type(entry[0])
    lo = keys.searchsorted(key, "left")
    hi = keys.searchsorted(key, "right")
    return int(lo + nids[lo:hi].searchsorted(entry[1], side))


def _holds(keys: "np.ndarray", nids: "np.ndarray", entry: tuple) -> int:
    """The position of ``entry`` in a pair of columns, or -1."""
    at = _entry_position(keys, nids, entry, "left")
    if at < len(keys) and keys[at] == entry[0] and nids[at] == entry[1]:
        return at
    return -1


class RunSnapshot:
    """One immutable version of a :class:`SortedRun`.  Holds every read
    algorithm: the live run answers reads through its current one."""

    __slots__ = ("base_keys", "base_nids", "dead", "ins_keys", "ins_nids")

    def __init__(
        self,
        base_keys: "np.ndarray",
        base_nids: "np.ndarray",
        dead: "np.ndarray",
        ins_keys: "np.ndarray",
        ins_nids: "np.ndarray",
    ):
        self.base_keys = base_keys
        self.base_nids = base_nids
        self.dead = dead
        self.ins_keys = ins_keys
        self.ins_nids = ins_nids

    def __len__(self) -> int:
        return len(self.base_keys) - len(self.dead) + len(self.ins_keys)

    def __contains__(self, entry: tuple) -> bool:
        at = _holds(self.base_keys, self.base_nids, entry)
        if at >= 0:
            dead = self.dead
            where = dead.searchsorted(at)
            return where == len(dead) or dead[where] != at
        return _holds(self.ins_keys, self.ins_nids, entry) >= 0

    # ------------------------------------------------------------------
    # Merged stretches (the cursors and columns())
    # ------------------------------------------------------------------

    def _slice(
        self, lo: int, hi: int, ins_lo: int, ins_hi: int
    ) -> tuple["np.ndarray", "np.ndarray"]:
        """Base positions ``[lo, hi)`` less their dead ones, with the
        inserts ``[ins_lo, ins_hi)`` sorted in: one stretch of the set
        as ``(keys, nids)`` columns."""
        keys, nids = self.base_keys[lo:hi], self.base_nids[lo:hi]
        dead = self.dead
        gone = dead[dead.searchsorted(lo) : dead.searchsorted(hi)] - lo
        if not len(gone) and ins_hi <= ins_lo:
            return keys, nids
        add_keys = self.ins_keys[ins_lo:ins_hi]
        add_nids = self.ins_nids[ins_lo:ins_hi]
        at, _found = _find(keys, nids, add_keys, add_nids)
        keys, nids = _splice((keys, nids), gone, at, (add_keys, add_nids))
        return keys, nids

    def _inserts_before(self, at: int) -> int:
        """How many inserts sort before base position ``at``'s entry."""
        if not len(self.ins_keys):
            return 0
        entry = (self.base_keys[at], self.base_nids[at])
        return _entry_position(self.ins_keys, self.ins_nids, entry, "left")

    def _stretches(
        self, lo: int, hi: int, ins_lo: int, ins_hi: int, reverse: bool = False
    ) -> Iterator[tuple["np.ndarray", "np.ndarray"]]:
        """:meth:`_slice` over ``[lo, hi)`` and ``[ins_lo, ins_hi)``
        made a base block at a time, in cursor order: each block takes
        the inserts that sort before the next block's first entry, so a
        read of ``top_values(3)`` pays for one block."""
        starts = range(lo, max(hi, lo + 1), _BLOCK)
        order = reversed(range(len(starts))) if reverse else range(len(starts))
        for i in order:
            start = starts[i]
            stop = min(start + _BLOCK, hi)
            first = ins_lo if i == 0 else self._inserts_before(start)
            last = ins_hi if stop == hi else self._inserts_before(stop)
            keys, nids = self._slice(start, stop, first, last)
            yield (keys[::-1], nids[::-1]) if reverse else (keys, nids)

    @staticmethod
    def _tuples(
        stretches: Iterator[tuple["np.ndarray", "np.ndarray"]],
    ) -> Iterator[tuple]:
        """Stretches of columns as entry tuples, one stretch at a time."""
        for keys, nids in stretches:
            yield from zip(keys.tolist(), nids.tolist())

    # ------------------------------------------------------------------
    # Cursors (Python tuples: point lookups, verification, tests)
    # ------------------------------------------------------------------

    def keys(self) -> Iterator[tuple]:
        """Every ``(key, nid)`` entry in ascending order."""
        return self._tuples(
            self._stretches(0, len(self.base_keys), 0, len(self.ins_keys))
        )

    def items(self) -> Iterator[tuple[tuple, None]]:
        """:meth:`keys` as ``(entry, None)`` pairs (the cursor protocol
        the point lookups consume)."""
        return zip(self.keys(), repeat(None))

    def items_reversed(self) -> Iterator[tuple[tuple, None]]:
        stretches = self._stretches(
            0, len(self.base_keys), 0, len(self.ins_keys), reverse=True
        )
        return zip(self._tuples(stretches), repeat(None))

    def range(
        self,
        low: tuple | None = None,
        high: tuple | None = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[tuple[tuple, None]]:
        """Entries between two composite ``(key, nid)`` bounds
        (``None`` = unbounded), as ``(entry, None)`` pairs."""
        base = (self.base_keys, self.base_nids)
        ins = (self.ins_keys, self.ins_nids)
        lo, ins_lo = 0, 0
        if low is not None:
            side = "left" if include_low else "right"
            lo = _entry_position(*base, low, side)
            ins_lo = _entry_position(*ins, low, side)
        hi, ins_hi = len(base[0]), len(ins[0])
        if high is not None:
            side = "right" if include_high else "left"
            hi = _entry_position(*base, high, side)
            ins_hi = _entry_position(*ins, high, side)
        stretches = self._stretches(lo, hi, ins_lo, ins_hi)
        return zip(self._tuples(stretches), repeat(None))

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
        column; while there is a delta, minus the slice's dead
        positions and plus the inserted nids over the same keys."""
        bounds = (low, high, include_low, include_high)
        lo, hi = _key_bounds(self.base_keys, *bounds)
        nids = self.base_nids[lo:hi]
        dead, ins_keys = self.dead, self.ins_keys
        if not len(dead) and not len(ins_keys):
            return nids
        gone = dead[dead.searchsorted(lo) : dead.searchsorted(hi)]
        if len(gone):
            nids = np.delete(nids, gone - lo)
        ins_lo, ins_hi = _key_bounds(ins_keys, *bounds)
        if ins_lo < ins_hi:
            nids = np.concatenate((nids, self.ins_nids[ins_lo:ins_hi]))
        return nids

    def columns(self) -> tuple["np.ndarray", "np.ndarray"]:
        """The whole set as sorted ``(keys, nids)`` columns: the base
        itself while the delta is empty, else base and delta merged
        (what :meth:`SortedRun.fold` installs)."""
        if not len(self.dead) and not len(self.ins_keys):
            return self.base_keys, self.base_nids
        return self._slice(0, len(self.base_keys), 0, len(self.ins_keys))


class SortedRun:
    """A mutable sorted set of ``(key, nid)`` entries (module docstring).

    Offers what the value indices need — :meth:`apply` (one batch of
    inserts and deletes), ``insert``/``delete`` (one-entry batches),
    ``keys``, ``range``, ``items_reversed``, ``snapshot``,
    ``check_invariants`` — plus the column operations that replace
    per-entry work: :meth:`nids_between` (scan), :meth:`merge` (bulk
    build), :meth:`remove_nids` (unload) and :meth:`fold`.  Writers are
    serialised by the caller; readers need no lock.

    Args:
        dtype: numpy dtype of the key column.
    """

    def __init__(self, dtype: Any):
        self._rebase(np.empty(0, dtype=dtype), np.empty(0, dtype=np.int64))

    def _publish(
        self,
        base_keys: "np.ndarray",
        base_nids: "np.ndarray",
        dead: "np.ndarray",
        ins_keys: "np.ndarray",
        ins_nids: "np.ndarray",
    ) -> None:
        """Install the next version: one reference assignment.  Scans
        hand out slices of the columns, so they are frozen."""
        for column in (dead, ins_keys, ins_nids):
            column.setflags(write=False)
        self._state = RunSnapshot(base_keys, base_nids, dead, ins_keys, ins_nids)

    def _rebase(self, keys: "np.ndarray", nids: "np.ndarray") -> None:
        """Publish ``(keys, nids)`` as the base run under an empty
        delta."""
        keys.setflags(write=False)
        nids.setflags(write=False)
        self._publish(keys, nids, _NO_POSITIONS, keys[:0], nids[:0])

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
    # Delta writes
    # ------------------------------------------------------------------

    def apply(
        self, inserts: Sequence[tuple] = (), deletes: Sequence[tuple] = ()
    ) -> int:
        """Delete the entries ``deletes``, then add ``inserts``, and
        publish one version; returns the change in size.  Deleting an
        absent entry or adding a present one changes nothing.

        A base entry dies by its position joining ``dead`` and comes
        back by its position leaving it; any other entry is, or
        becomes, an insert.  An update's few entries are sorted into
        place one by one in Python (:meth:`_few`); a batch of more than
        ``_FEW`` — a multi-node ``update_texts``, a transaction's
        commit, a structural update of a large subtree — as whole
        columns (:meth:`_many`): numpy's per-call cost would dominate
        the first, a Python loop the second."""
        live = dict.fromkeys(deletes, False)
        live.update(dict.fromkeys(inserts, True))
        if not live:
            return 0
        state = self._state
        delta = (self._few if len(live) <= _FEW else self._many)(state, live)
        self._publish(state.base_keys, state.base_nids, *delta)
        return len(self._state) - len(state)

    @staticmethod
    def _few(state: RunSnapshot, live: dict) -> tuple["np.ndarray", ...]:
        """The next ``(dead, ins_keys, ins_nids)`` for a few changes
        (``live``: entry -> added)."""
        dtype = state.base_keys.dtype
        entries = sorted(live)
        keys = _column([key for key, _nid in entries], dtype)
        nids = np.array([nid for _key, nid in entries], dtype=np.int64)
        at, held = _find(state.base_keys, state.base_nids, keys, nids)
        dies, lives, others = [], [], []
        for entry, position, in_base in zip(entries, at.tolist(), held.tolist()):
            if not in_base:
                others.append(entry)
            elif live[entry]:
                lives.append(position)
            else:
                dies.append(position)
        dead = state.dead
        if dies or lives:
            # Dying twice or living on changes nothing.
            where = dead.searchsorted(dies + lives).tolist()
            was = [
                w < len(dead) and dead.item(w) == p
                for w, p in zip(where, dies + lives)
            ]
            fresh = [(w, p) for w, p, gone in zip(where, dies, was) if not gone]
            back = [
                w for w, gone in zip(where[len(dies) :], was[len(dies) :]) if gone
            ]
            (dead,) = _splice(
                (dead,),
                back,
                [w for w, _p in fresh],
                (np.array([p for _w, p in fresh], dtype=np.int64),),
            )
        drop, place, new = [], [], []
        if others:
            at, held = _find(
                state.ins_keys,
                state.ins_nids,
                _column([key for key, _nid in others], dtype),
                np.array([nid for _key, nid in others], dtype=np.int64),
            )
            for entry, position, there in zip(others, at.tolist(), held.tolist()):
                if live[entry] and not there:
                    place.append(position)
                    new.append(entry)
                elif there and not live[entry]:
                    drop.append(position)
        ins_keys, ins_nids = _splice(
            (state.ins_keys, state.ins_nids),
            drop,
            place,
            (
                _column([key for key, _nid in new], dtype),
                np.array([nid for _key, nid in new], dtype=np.int64),
            ),
        )
        return dead, ins_keys, ins_nids

    @staticmethod
    def _many(state: RunSnapshot, live: dict) -> tuple["np.ndarray", ...]:
        """:meth:`_few` for a bulk batch, with whole-column steps."""
        keys, nids = zip(*live)
        keys = _column(keys, state.base_keys.dtype)
        nids = np.array(nids, dtype=np.int64)
        adds = np.fromiter(live.values(), dtype=bool, count=len(live))
        order = np.lexsort((nids, keys))
        keys, nids, adds = keys[order], nids[order], adds[order]
        at, held = _find(state.base_keys, state.base_nids, keys, nids)
        at_base, dies = at[held], ~adds[held]
        dead = state.dead
        where = dead.searchsorted(at_base)
        was = _hits(dead, where, at_base)
        doomed = dies & ~was
        (dead,) = _splice(
            (dead,), where[was & ~dies], where[doomed], (at_base[doomed],)
        )
        rest = ~held
        keys, nids, adds = keys[rest], nids[rest], adds[rest]
        at, held = _find(state.ins_keys, state.ins_nids, keys, nids)
        new = adds & ~held
        ins_keys, ins_nids = _splice(
            (state.ins_keys, state.ins_nids),
            at[held & ~adds],
            at[new],
            (keys[new], nids[new]),
        )
        return dead, ins_keys, ins_nids

    def insert(self, entry: tuple) -> bool:
        """Add ``entry``; returns False if it was already present."""
        return self.apply(inserts=(entry,)) > 0

    def delete(self, entry: tuple) -> bool:
        """Remove ``entry``; returns False if it was absent."""
        return self.apply(deletes=(entry,)) < 0

    # ------------------------------------------------------------------
    # Column writes (each builds a new base under an empty delta)
    # ------------------------------------------------------------------

    def fold(self) -> None:
        """Merge the delta into a new base run.  Versions handed out
        before keep reading the columns they hold."""
        state = self._state
        if len(state.dead) or len(state.ins_keys):
            self._rebase(*state.columns())

    def merge(self, keys: Sequence, nids: Sequence[int]) -> None:
        """Add the entries ``zip(keys, nids)`` (any order) with one
        sort of the columns — index creation, reopen, a further
        document.  Raises ``ValueError`` if an entry is already present
        or given twice."""
        keys, nids, repeat_ = _sorted_columns(self.columns(), keys, nids)
        if repeat_.any():
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
        """Validate the order of the base and the inserts, the dead
        positions, the invariant that ties the delta to the base, and
        the size."""
        state = self._state
        for keys, nids in (
            (state.base_keys, state.base_nids),
            (state.ins_keys, state.ins_nids),
        ):
            assert len(keys) == len(nids), "columns out of step"
            ascending = (keys[1:] > keys[:-1]) | (
                (keys[1:] == keys[:-1]) & (nids[1:] > nids[:-1])
            )
            assert ascending.all(), "run out of order"
        dead = state.dead
        assert (dead[1:] > dead[:-1]).all(), "dead positions out of order"
        assert not len(dead) or 0 <= dead[0] <= dead[-1] < len(state.base_keys)
        _at, held = _find(
            state.base_keys, state.base_nids, state.ins_keys, state.ins_nids
        )
        assert not held.any(), "an insert is in the base"
        scanned = 0
        previous = None
        for entry in state.keys():  # streamed: verify() runs on full indices
            assert previous is None or previous < entry, "scan out of order"
            previous = entry
            scanned += 1
        assert scanned == len(state), "scan incomplete"
