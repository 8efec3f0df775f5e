"""Snapshot-isolated readers over the index manager.

This module gives the reproduction its concurrent serving path
(``docs/concurrency.md`` is the protocol spec):

* **Readers** open a :class:`ReadView` — an O(1) pin of the last
  *published* :class:`ManagerSnapshot` (the manager's epoch plus one
  :class:`~repro.btree.sorted_run.RunSnapshot` per index: its base
  columns and a snapshot of its delta tree).  For the view's lifetime
  the thread's index lookups resolve against those immutable versions
  and its text reads resolve through the MVCC overlay
  (:mod:`repro.xmldb.mvcc`) at the pinned epoch — lock-free with
  respect to text writers.
* **Text writers** serialize among themselves (one writer RLock),
  record before-values into the overlay, mutate the indices' copy-on-
  write deltas (folding one into a new base run when it has drifted far
  enough), and *publish* a new snapshot at the end — so a reader either
  sees all of an update's index entries and text values, or none.
* **Structural writers** (subtree insert/delete, loads/unloads, index
  builds, checkpoints) splice columns in place, which cannot be
  versioned cheaply — they take the latch *exclusively*, draining
  active views first.  This stop-the-world path is the documented
  trade-off; the serving workload (queries + text updates) never
  takes it, whatever indices are configured.

The latch is shared/exclusive with thread-local reentrancy; readers
and text writers both hold it shared, so readers never block behind a
text update.  Every manager owns a controller from construction on:
there is one engine mode, and single-threaded use runs the same
scopes as a served database.
"""

from __future__ import annotations

import threading
import weakref
from collections import deque
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator

from ..xmldb.mvcc import TextOverlay, reading_at

if TYPE_CHECKING:  # pragma: no cover
    from ..btree.sorted_run import RunSnapshot
    from .manager import IndexManager

__all__ = [
    "ConcurrencyController",
    "EpochNotRetained",
    "ManagerSnapshot",
    "ReadView",
    "ReadWriteLatch",
    "SessionPin",
    "active_view",
]


class EpochNotRetained(LookupError):
    """An ``as_of`` epoch outside the retained time-travel window."""

_tls = threading.local()


def active_view() -> "ReadView | None":
    """The ReadView this thread is currently executing under, if any."""
    return getattr(_tls, "view", None)


class ReadWriteLatch:
    """A shared/exclusive latch with per-thread reentrancy.

    * ``shared`` — many holders; taken by read views *and* text
      writers (they coexist via MVCC).
    * ``exclusive`` — single holder, waits for all shared holders to
      drain and blocks new ones (arrival of an exclusive waiter gates
      fresh shared acquires, so structural writers cannot starve).

    A thread already holding the latch (either mode) re-acquires
    shared for free; exclusive-in-exclusive nests.  Upgrading shared
    to exclusive would self-deadlock and raises instead.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._shared = 0
        self._exclusive_owner: int | None = None
        self._exclusive_waiting = 0
        self._tls = threading.local()

    def _depth(self, mode: str) -> int:
        return getattr(self._tls, mode, 0)

    def _bump(self, mode: str, delta: int) -> int:
        value = getattr(self._tls, mode, 0) + delta
        setattr(self._tls, mode, value)
        return value

    def acquire_shared(self) -> None:
        if self._exclusive_owner == threading.get_ident() or self._depth("s"):
            self._bump("s", 1)
            return
        with self._cond:
            while self._exclusive_owner is not None or self._exclusive_waiting:
                self._cond.wait()
            self._shared += 1
        self._bump("s", 1)

    def release_shared(self) -> None:
        if self._bump("s", -1):
            return
        if self._exclusive_owner == threading.get_ident():
            return  # was a reentrant no-op under our own exclusive
        with self._cond:
            self._shared -= 1
            if self._shared == 0:
                self._cond.notify_all()

    def acquire_exclusive(self) -> None:
        me = threading.get_ident()
        if self._exclusive_owner == me:
            self._bump("x", 1)
            return
        if self._depth("s"):
            raise RuntimeError("cannot upgrade a shared latch to exclusive")
        with self._cond:
            self._exclusive_waiting += 1
            try:
                while self._exclusive_owner is not None or self._shared:
                    self._cond.wait()
                self._exclusive_owner = me
            finally:
                self._exclusive_waiting -= 1
        self._bump("x", 1)

    def release_exclusive(self) -> None:
        if self._bump("x", -1):
            return
        with self._cond:
            self._exclusive_owner = None
            self._cond.notify_all()

    @contextmanager
    def shared(self) -> Iterator[None]:
        self.acquire_shared()
        try:
            yield
        finally:
            self.release_shared()

    @contextmanager
    def exclusive(self) -> Iterator[None]:
        self.acquire_exclusive()
        try:
            yield
        finally:
            self.release_exclusive()


class ManagerSnapshot:
    """One published version of the manager's index state."""

    __slots__ = ("epoch", "trees")

    def __init__(self, epoch: int, trees: dict[Any, "RunSnapshot"]):
        self.epoch = epoch
        #: index object -> pinned RunSnapshot of its value run.
        self.trees = trees


class ReadView:
    """A query's pinned, immutable view of the database.

    Context manager: entering takes the latch shared, pins the last
    published snapshot, and installs the thread-local read context so
    index lookups (via each index's ``_lookup_tree``) and document
    text reads (via the MVCC overlay) resolve at this view's epoch.
    Only answers are pinned: the planner prices every reader from the
    manager's one statistics snapshot, and estimates choose between
    correct plans (``docs/query-engine.md``).

    ``at`` pins a specific (already captured) snapshot instead of the
    currently published one — the serving layer uses this to run each
    network request of a pinned session at the session's epoch.

    Entering is exception-safe: if anything after the shared-latch
    acquire fails, the latch, the pin and the thread-local are all
    rolled back before the exception propagates (a leaked shared hold
    would wedge every future structural writer).  Exiting forwards the
    real exception triple to the MVCC reading scope.
    """

    def __init__(self, controller: "ConcurrencyController",
                 at: "ManagerSnapshot | None" = None):
        self._controller = controller
        self._at = at
        self.snapshot: ManagerSnapshot | None = None
        self.epoch: int | None = None
        self._reading = None
        self._previous_view: "ReadView | None" = None
        self._depth = 0

    def __enter__(self) -> "ReadView":
        if self._depth == 0:
            controller = self._controller
            controller.latch.acquire_shared()
            try:
                # Atomic capture + pin: a publish/prune cannot slip
                # between reading the snapshot and registering
                # against it.
                self.snapshot = controller.pin(self, self._at)
                self.epoch = self.snapshot.epoch
                self._previous_view = active_view()
                reading = reading_at(self.epoch)
                reading.__enter__()
                self._reading = reading
                _tls.view = self
            except BaseException:
                self.snapshot = None
                self.epoch = None
                self._previous_view = None
                controller.release_pin(self)
                controller.latch.release_shared()
                raise
        self._depth += 1
        return self

    def __exit__(self, *exc) -> None:
        self._depth -= 1
        if self._depth:
            return
        if not exc:
            exc = (None, None, None)
        try:
            reading = self._reading
            self._reading = None
            if reading is not None:
                reading.__exit__(*exc)
        finally:
            _tls.view = self._previous_view
            self._previous_view = None
            try:
                self._controller.release_pin(self)
            finally:
                self._controller.latch.release_shared()

    def tree_for(self, index: Any) -> "RunSnapshot | None":
        """The pinned run snapshot backing ``index``, if captured."""
        return self.snapshot.trees.get(index)


class SessionPin:
    """A long-lived epoch pin that does *not* hold the latch.

    Network sessions pin a snapshot across many requests; holding the
    shared latch for a connection's lifetime would block structural
    writers and checkpoints indefinitely, so a session pin only
    registers in the controller's pin table (keeping the MVCC overlay
    versions for its epoch alive — the pinned runs are immutable
    versions and need no protection).  The trade-off:
    structural operations are *not* excluded and splice the shared
    document arrays in place, invalidating the pinned view; the
    serving layer checks :meth:`ConcurrencyController.pin_valid`
    inside each request's latched scope and reports
    ``view invalidated`` to the client instead of serving torn data.
    """

    __slots__ = ("snapshot", "epoch", "structural_epoch")

    def __init__(self, snapshot: ManagerSnapshot, structural_epoch: int):
        self.snapshot = snapshot
        self.epoch = snapshot.epoch
        self.structural_epoch = structural_epoch


class ConcurrencyController:
    """Coordinates readers, text writers and structural writers.

    Every :class:`~repro.core.manager.IndexManager` owns one
    (``manager.concurrency``); the manager's read and write paths run
    through its scopes.  Code that installs index state outside a
    writer scope (:func:`repro.storage.persist.load_manager`) calls
    :meth:`publish` itself.
    """

    def __init__(self, manager: "IndexManager"):
        #: A weak proxy: the manager owns its controller, and a strong
        #: back-reference would make the pair a cycle that only the
        #: cyclic collector frees once the engine is closed and dropped.
        self.manager = weakref.proxy(manager)
        self.latch = ReadWriteLatch()
        #: Serializes writers (text and structural); reentrant so the
        #: Database layer can hold it across WAL append + apply.
        self.write_lock = threading.RLock()
        #: One lock guards the published snapshot *and* the pin table:
        #: a reader's capture+pin and a writer's publish are atomic
        #: with respect to each other, so pruning can never compute an
        #: oldest-pin that misses a reader mid-registration.
        self._state_lock = threading.Lock()
        self._pins: dict[int, int] = {}  # id(view/pin) -> pinned epoch
        #: Bumped by every structural exclusive operation (not by
        #: checkpoints, which drain readers but change no state);
        #: session pins capture it to detect invalidation.
        self.structural_epoch = 0
        #: Time-travel window: how many published snapshots to retain
        #: for "as of" reads (0 = none; set via :meth:`set_retention`).
        self.retain_epochs = 0
        self._retained: deque[ManagerSnapshot] = deque()
        self._published = self._capture()
        self._attach_overlays()

    # -- snapshot publication -------------------------------------------

    def _capture(self) -> ManagerSnapshot:
        manager = self.manager
        trees = {index: index.tree.snapshot() for index in manager.indexes}
        return ManagerSnapshot(manager.epoch, trees)

    def publish(self) -> None:
        """Publish the manager's current state as the new snapshot.

        Called by writers after they finish applying (and bumping the
        epoch); the assignment is the readers' visibility point.
        """
        snapshot = self._capture()
        with self._state_lock:
            self._published = snapshot
            self._retain_locked(snapshot)
        self._attach_overlays()
        self.prune_overlays()
        self.manager.metrics.counter("concurrency.publishes").inc()

    def published(self) -> ManagerSnapshot:
        with self._state_lock:
            return self._published

    # -- time-travel retention -------------------------------------------

    def _retain_locked(self, snapshot: ManagerSnapshot) -> None:
        if self.retain_epochs <= 0:
            return
        if self._retained and self._retained[-1].epoch == snapshot.epoch:
            # Drain-only publishes (checkpoints) re-publish the same
            # epoch with fresh tree pins; keep one entry per epoch.
            self._retained[-1] = snapshot
        else:
            self._retained.append(snapshot)
        while len(self._retained) > self.retain_epochs:
            self._retained.popleft()

    def set_retention(self, epochs: int) -> None:
        """Size the retained-epoch window for "as of" reads.

        The currently published snapshot seeds the window so "as of
        now" is immediately answerable.  Shrinking (or zeroing) drops
        the oldest retained snapshots; the next prune reclaims their
        overlay versions.
        """
        with self._state_lock:
            self.retain_epochs = max(0, int(epochs))
            if self.retain_epochs == 0:
                self._retained.clear()
            else:
                self._retain_locked(self._published)

    def retained_epochs(self) -> list[int]:
        """Epochs currently answerable by :meth:`read_view_as_of`,
        oldest first (always includes the published epoch)."""
        with self._state_lock:
            epochs = [snap.epoch for snap in self._retained]
            if not epochs or epochs[-1] != self._published.epoch:
                epochs.append(self._published.epoch)
        return epochs

    def snapshot_as_of(self, epoch: int) -> ManagerSnapshot:
        """The retained snapshot published at ``epoch``.

        Raises :class:`EpochNotRetained` when that epoch is not in the
        retained window (never published, already evicted, or
        invalidated by a structural operation).
        """
        with self._state_lock:
            if epoch == self._published.epoch:
                return self._published
            for snap in reversed(self._retained):
                if snap.epoch == epoch:
                    return snap
            retained = [s.epoch for s in self._retained]
        raise EpochNotRetained(
            f"epoch {epoch} is not retained "
            f"(window: {retained or [self.published().epoch]})"
        )

    def read_view_as_of(self, epoch: int) -> ReadView:
        """A view pinned at a *retained* historical epoch."""
        return ReadView(self, at=self.snapshot_as_of(epoch))

    def _attach_overlays(self) -> None:
        for doc in self.manager.store.documents.values():
            if doc.text_overlay is None:
                doc.text_overlay = TextOverlay()

    # -- reader pins -----------------------------------------------------

    def read_view(self) -> ReadView:
        return ReadView(self)

    def read_view_at(self, pin: SessionPin) -> ReadView:
        """A per-request view resolving at ``pin``'s session snapshot."""
        return ReadView(self, at=pin.snapshot)

    def pin(self, view: ReadView,
            at: ManagerSnapshot | None = None) -> ManagerSnapshot:
        """Atomically capture the published snapshot and pin it.

        Snapshot read and pin registration happen under one lock, so a
        concurrent publish+prune either sees this view's pin or hands
        it the new snapshot — never an unpinned stale epoch whose
        overlay entries pruning could reclaim.  ``at`` pins that
        snapshot instead of the published one (its epoch is already
        protected by the session pin that owns it).
        """
        with self._state_lock:
            snapshot = self._published if at is None else at
            self._pins[id(view)] = snapshot.epoch
        self.manager.metrics.counter("concurrency.epoch_pins").inc()
        return snapshot

    def open_pin(self) -> SessionPin:
        """Register a long-lived session pin at the published snapshot
        (see :class:`SessionPin`; released with :meth:`close_pin`)."""
        with self._state_lock:
            snapshot = self._published
            pin = SessionPin(snapshot, self.structural_epoch)
            self._pins[id(pin)] = snapshot.epoch
        self.manager.metrics.counter("concurrency.session_pins").inc()
        return pin

    def close_pin(self, pin: SessionPin) -> None:
        self.release_pin(pin)

    def pin_valid(self, pin: SessionPin) -> bool:
        """False once a structural operation has invalidated ``pin``.

        Only meaningful while the caller holds the latch shared (a
        structural writer could otherwise invalidate it between the
        check and the reads it guards).
        """
        return pin.structural_epoch == self.structural_epoch

    def release_pin(self, view: object) -> None:
        """Forget ``view``'s pin.  Readers never prune: the versions it
        held go at the next :meth:`publish`."""
        with self._state_lock:
            self._pins.pop(id(view), None)

    def prune_overlays(self) -> None:
        """Drop overlay versions no pinned reader can still observe.

        The published epoch acts as an implicit pin: a new reader may
        pin it at any instant, and a mid-flight text update's
        before-values are stamped ``published + 1``, so the prune bound
        is ``min(oldest pin, oldest retained, published epoch)`` —
        entries above the published epoch always survive until their
        writer publishes.
        Only :meth:`publish` calls it — from a writer scope, or from
        ``load_manager`` before anyone reads or writes — so pruning
        never races a recording writer's chain mutation.
        """
        with self._state_lock:
            floors = [self._published.epoch, *self._pins.values()]
            if self._retained:
                # Retained snapshots are implicit pins: an "as of"
                # reader may still resolve text at the oldest one.
                floors.append(self._retained[0].epoch)
        bound = min(floors)
        for doc in self.manager.store.documents.values():
            overlay = doc.text_overlay
            if overlay is not None:
                overlay.prune(bound)

    # -- writer scopes ---------------------------------------------------

    def check_write_allowed(self) -> None:
        """Fail fast instead of deadlocking on a write inside a view.

        A thread inside a :class:`ReadView` holds the latch shared; if
        it then waits on ``write_lock`` while a structural writer holds
        that lock and waits in ``latch.exclusive()`` for shared holders
        to drain, both hang.  Mirrors the latch's shared→exclusive
        upgrade check: raise before entering the cycle.
        """
        if active_view() is not None:
            raise RuntimeError(
                "cannot write from inside a read view: close the view "
                "before issuing updates (see docs/concurrency.md)"
            )

    @contextmanager
    def text_update(self) -> Iterator[int]:
        """Scope for an MVCC text update: writer lock + shared latch.

        Yields the epoch the update will commit as (current + 1);
        before-values recorded into the overlay carry this stamp.
        Publishes the new snapshot on exit.
        """
        self.check_write_allowed()
        with self.write_lock:
            with self.latch.shared():
                yield self.manager.epoch + 1
                self.publish()

    @contextmanager
    def exclusive(self, structural: bool = True) -> Iterator[None]:
        """Scope for a structural change: writer lock + exclusive latch.

        Drains all read views first and publishes the new snapshot on
        exit; overlays are pruned to the oldest pin as on any publish
        (session pins and open transactions hold no latch and outlive
        the scope).  ``structural=False`` marks drain-only exclusive
        scopes (checkpoints) that change no indexed state and therefore
        must not invalidate session pins.
        """
        self.check_write_allowed()
        with self.write_lock:
            with self.latch.exclusive():
                self.manager.metrics.counter("concurrency.exclusive_ops").inc()
                yield
                if structural:
                    with self._state_lock:
                        self.structural_epoch += 1
                        # In-place column splices invalidate every
                        # retained snapshot, exactly as they do session
                        # pins; drop the time-travel window rather than
                        # serve torn history.
                        self._retained.clear()
                self.publish()
