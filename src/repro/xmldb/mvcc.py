"""Thread-local read epochs and the text-version overlay.

Structural state (the pre/size/level columns) only changes under the
manager's exclusive latch, and index trees are copy-on-write — but the
text heap is a plain mutable list, and text updates run under a
*shared* latch so readers never block behind them.  To keep a pinned
reader consistent, writers record the *before* value of every slot
they overwrite, stamped with the epoch their change introduces; a
reader pinned at epoch E resolves a slot by taking the before-value of
the first overlay entry with ``epoch > E``, falling back to the live
heap.  Transactions (:mod:`repro.txn.manager`) read and validate
against the same chains; there is no second version store.

The reader side is a thread-local: :func:`reading_at` installs the
pinned epoch for the duration of a query.  Every text read is a batch
(:meth:`Document.read_texts`): it reads the heap slots first, then —
only when the overlay holds versions and the thread is pinned — puts
back the before-values of the slots overwritten after the pin
(:meth:`TextOverlay.rewind`).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

__all__ = ["read_epoch", "reading_at", "TextOverlay"]

_tls = threading.local()


def read_epoch() -> int | None:
    """The epoch this thread's reads are pinned at, or None (live)."""
    return getattr(_tls, "epoch", None)


@contextmanager
def reading_at(epoch: int | None) -> Iterator[None]:
    """Pin this thread's text reads at ``epoch`` for the duration."""
    previous = getattr(_tls, "epoch", None)
    _tls.epoch = epoch
    try:
        yield
    finally:
        _tls.epoch = previous


class TextOverlay:
    """Before-values of overwritten text-heap slots, per document.

    ``versions[slot]`` is a list of ``(epoch, before_value)`` entries in
    ascending epoch order, where ``epoch`` is the epoch whose update
    *replaced* ``before_value``.  Readers pinned at E < epoch still see
    ``before_value``; readers at E >= the newest entry's epoch read the
    live heap.  Entries are pruned once no reader is pinned before
    their epoch (:meth:`prune`).
    """

    __slots__ = ("versions",)

    def __init__(self) -> None:
        self.versions: dict[int, list[tuple[int, str]]] = {}

    def record(self, slot: int, epoch: int, before: str) -> None:
        """Remember that ``epoch``'s update replaced ``before``.

        Must be called *before* the heap slot is overwritten, so a
        reader racing with the write finds either the old heap value or
        the overlay entry — both the same string.
        """
        chain = self.versions.get(slot)
        if chain is None:
            self.versions[slot] = [(epoch, before)]
        elif chain[-1][0] != epoch:
            chain.append((epoch, before))
        # Same epoch overwriting the same slot twice: the first
        # before-value is the one a pinned reader must see; keep it.

    def resolve(self, slot: int, live: str, epoch: int) -> str:
        """The value of ``slot`` as of read epoch ``epoch``."""
        chain = self.versions.get(slot)
        if chain:
            for entry_epoch, before in chain:
                if entry_epoch > epoch:
                    return before
        return live

    def rewind(self, slots, values: list[str], epoch: int) -> None:
        """Turn ``values``, the live heap values just read at ``slots``,
        into their values as of read epoch ``epoch``, in place.

        Only the slots overwritten after ``epoch``
        (:meth:`changed_since`) are re-resolved; one set intersection
        with the versioned slots finds them, so a batch none of whose
        slots changed costs no per-slot Python work.  Call it *after*
        reading the heap (see :meth:`record`).
        """
        changed = self.versions.keys() & slots
        if not changed:
            return
        for i, slot in enumerate(slots):
            if slot in changed and self.changed_since(slot, epoch):
                values[i] = self.resolve(slot, values[i], epoch)

    def changed_since(self, slot: int, epoch: int) -> bool:
        """Was ``slot`` overwritten after ``epoch``?  Exact for an
        epoch that is still pinned (pruning keeps versions above it)."""
        chain = self.versions.get(slot)
        return bool(chain) and chain[-1][0] > epoch

    def prune(self, bound: int) -> None:
        """Drop the entries with ``epoch <= bound``.

        ``bound`` is the smallest epoch any reader holds or may still
        pin (:meth:`ConcurrencyController.prune_overlays
        <repro.core.concurrency.ConcurrencyController.prune_overlays>`);
        such entries are invisible to every current and future reader.
        """
        dead = []
        for slot, chain in self.versions.items():
            keep = [e for e in chain if e[0] > bound]
            if keep:
                if len(keep) != len(chain):
                    self.versions[slot] = keep
            else:
                dead.append(slot)
        for slot in dead:
            del self.versions[slot]

    def __len__(self) -> int:
        return sum(len(chain) for chain in self.versions.values())
