"""Optimistic transactions over the value indices (paper Section 5.1).

The paper's observation: every text update changes the hash of *all*
its ancestors, so naive locking would serialise every transaction on
the root.  But because the combination function ``C`` is associative
and ancestor recomputation folds over the *current* children values,
ancestor maintenance commutes across transactions that touch different
text nodes — so no ancestor locks are needed at all.  "A committing
transaction should re-read the latest value of all ancestor nodes of an
update (and their direct children, per the update algorithm) to
recompute their new hash values."

A transaction is a session pin plus a write buffer over the engine's
own MVCC (:mod:`repro.core.concurrency`, ``docs/concurrency.md``):

* ``begin`` pins the published epoch; reads run in a view at that pin
  (text resolves through the overlay of :mod:`repro.xmldb.mvcc`), so
  they are repeatable against *any* writer;
* writes are buffered locally (no store mutation, no locks);
* commit, under the controller's writer lock, validates only the
  *written text nodes themselves* — a slot with an overlay version
  newer than the pin, or a structural change since the pin, aborts
  (first-committer-wins) — then applies the buffer as one epoch, whose
  ancestor recomputation re-reads "the latest value ... of their direct
  children" from live index state.

The result is serialisable for disjoint write sets, which the tests
check by comparing interleaved commits against a from-scratch rebuild.
"""

from __future__ import annotations

from typing import Iterator, NoReturn

from ..core.concurrency import SessionPin
from ..core.manager import IndexManager
from ..errors import TransactionConflict, TransactionStateError

__all__ = ["TransactionManager", "Transaction"]


class TransactionManager:
    """Hands out transactions over one :class:`IndexManager` (through
    its concurrency controller: transactions are MVCC sessions)."""

    def __init__(self, index_manager: IndexManager):
        self.index_manager = index_manager
        self.controller = index_manager.concurrency

    def begin(self) -> "Transaction":
        """Start a transaction pinned at the published epoch."""
        return Transaction(self, self.controller.open_pin())


class Transaction:
    """A buffered optimistic transaction.  Not thread-shared."""

    def __init__(self, manager: TransactionManager, pin: SessionPin):
        self._manager = manager
        self._pin = pin
        self._writes: dict[int, str] = {}
        self.status = "active"
        #: Index epoch this transaction's apply published (set at
        #: commit); readers pinned below it cannot see its writes.
        self.commit_epoch: int | None = None
        self.commit_ts: int | None = None  # the same epoch

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def _require_active(self) -> None:
        if self.status != "active":
            raise TransactionStateError(f"transaction is {self.status}")

    def _finish(self, status: str) -> None:
        self.status = status
        self._manager.controller.close_pin(self._pin)

    def _conflict(self, reason: str) -> NoReturn:
        self._finish("aborted")
        raise TransactionConflict(reason)

    def _require_valid_pin(self) -> None:
        """Caller excludes structural writers (latch or writer lock)."""
        if not self._manager.controller.pin_valid(self._pin):
            self._conflict(
                "a structural update invalidated this transaction's snapshot"
            )

    def update_text(self, nid: int, new_text: str) -> None:
        """Buffer a text-value write (visible to this txn only)."""
        self._require_active()
        # Validate the target eagerly so errors surface at write time.
        doc, pre = self._manager.index_manager.store.node(nid)
        if doc.text_id[pre] < 0:
            raise TransactionStateError(f"node {nid} has no text value")
        self._writes[nid] = new_text

    def read_text(self, nid: int) -> str:
        """Snapshot read: own writes first, else the value as of this
        transaction's pinned epoch (repeatable reads — no later commit,
        transactional or not, bleeds into an open transaction)."""
        self._require_active()
        buffered = self._writes.get(nid)
        if buffered is not None:
            return buffered
        # The per-request view of a pinned network session: shared
        # latch + text resolved through the overlay at the pin's epoch.
        with self._manager.controller.read_view_at(self._pin):
            self._require_valid_pin()
            doc, pre = self._manager.index_manager.store.node(nid)
            return doc.text_of(pre)

    def writes(self) -> Iterator[tuple[int, str]]:
        return iter(self._writes.items())

    # ------------------------------------------------------------------
    # Outcome
    # ------------------------------------------------------------------

    def commit(self) -> int:
        """Validate and apply; returns the epoch the commit published.

        Raises :class:`~repro.errors.TransactionConflict` if any writer
        changed one of this transaction's nodes, or the document
        structure, after this transaction began (the buffer is
        discarded).
        """
        self._require_active()
        manager = self._manager.index_manager
        controller = self._manager.controller
        # Committing from inside a read view would wait on the writer
        # lock while holding the latch shared — fail fast (the
        # transaction stays active) rather than risk the cross-lock
        # cycle.
        controller.check_write_allowed()
        # Validation and apply are one atomic epoch installation with
        # respect to every other writer (update_texts re-enters the
        # lock; it is reentrant by design).
        with controller.write_lock:
            self._require_valid_pin()
            # First-committer-wins: only the updated text nodes
            # themselves are checked — never their ancestors.
            for nid in self._writes:
                doc, pre = manager.store.node(nid)
                if doc.text_overlay.changed_since(
                    doc.text_id[pre], self._pin.epoch
                ):
                    self._conflict(
                        f"node {nid} was modified by a concurrent writer"
                    )
            # Validated: the pin has served its last read, and must not
            # hold back the prune at this commit's own publish.
            controller.close_pin(self._pin)
            # Apply writes and recompute ancestors from the *live*
            # children values (the Section 5.1 commit-time re-read).
            try:
                manager.update_texts(list(self._writes.items()))
            except BaseException:
                self._finish("aborted")
                raise
            self.commit_epoch = self.commit_ts = manager.epoch
        self._finish("committed")
        return self.commit_epoch

    def abort(self) -> None:
        """Discard all buffered writes."""
        self._require_active()
        self._writes.clear()
        self._finish("aborted")

    # Context-manager sugar: commit on clean exit, abort on exception.
    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        if self.status != "active":
            return
        if exc_type is None:
            self.commit()
        else:
            self.abort()
