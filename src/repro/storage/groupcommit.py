"""Group commit: one fsync amortized across concurrent writers.

With ``sync="fsync"`` every committed update costs a durable-media
round trip; at N concurrent writers that is N fsyncs for N commits.
Group commit batches them: writers *enqueue* framed records and block;
one of them — the **leader** — drains the queue, hands the whole batch
to :meth:`~repro.storage.wal.WriteAheadLog.append_many` (one write,
one fsync), publishes the new durable sequence number and wakes the
rest.  Leadership is transient: whoever finds no active leader takes
over, so there is no dedicated committer thread to manage.

Acknowledgment contract (see ``docs/concurrency.md``): a writer's
update is **acknowledged** when :meth:`wait_durable` returns, i.e. its
record — and, because the queue preserves enqueue order, every record
enqueued before it — is on stable storage.  A crash may lose the
unacknowledged suffix only; frames remain individually CRC-guarded, so
a torn batch recovers to its longest valid prefix, which is always a
prefix of the enqueue order.

Crash injection: if the leader's write raises (e.g. an
:class:`~repro.storage.faults.InjectedCrash`), the log is *poisoned* —
every current and future caller re-raises the same exception, modeling
the process dying for all writers at once.
"""

from __future__ import annotations

import threading

from .wal import WalRecord, WriteAheadLog

__all__ = ["BATCH_MAX", "GroupCommitLog"]

#: Most records the leader writes per batch (one write, one fsync).
BATCH_MAX = 32


class GroupCommitLog:
    """Leader/follower group-commit front end over a WAL.

    The leader commits as soon as it takes over, with whatever is
    queued, up to :data:`BATCH_MAX` records per batch.

    Args:
        wal: The log records are written to.
        metrics: Optional registry; counts batches/records (mean
            occupancy = records/batches) and records per-batch sizes
            in the ``wal.group.batch_size`` histogram.
    """

    def __init__(self, wal: WriteAheadLog, metrics=None):
        self._wal = wal
        self._metrics = metrics
        self._cond = threading.Condition()
        self._queue: list[tuple[int, WalRecord]] = []
        self._next_seq = 0
        self._durable_seq = -1
        self._leader_active = False
        self._poison: BaseException | None = None

    @property
    def poisoned(self) -> bool:
        return self._poison is not None

    def _check_poison(self) -> None:
        if self._poison is not None:
            raise self._poison

    # ------------------------------------------------------------------
    # Writer API
    # ------------------------------------------------------------------

    def enqueue(self, record: WalRecord) -> int:
        """Queue a record for the next batch; returns its sequence
        number.  Non-blocking — callers typically enqueue while still
        holding the writer lock (preserving WAL order = apply order)
        and :meth:`wait_durable` after releasing it."""
        with self._cond:
            self._check_poison()
            seq = self._next_seq
            self._next_seq += 1
            self._queue.append((seq, record))
            return seq

    def wait_durable(self, seq: int) -> None:
        """Block until record ``seq`` is on stable storage.

        The caller may be elected leader while waiting, in which case
        it commits batches itself until its record is durable, then
        hands leadership to the next waiter.
        """
        while True:
            with self._cond:
                while True:
                    self._check_poison()
                    if self._durable_seq >= seq:
                        return
                    if not self._leader_active:
                        self._leader_active = True
                        break
                    self._cond.wait()
            try:
                self._lead(seq)
            finally:
                with self._cond:
                    self._leader_active = False
                    self._cond.notify_all()

    def drain(self) -> None:
        """Commit everything enqueued so far (checkpoint support)."""
        with self._cond:
            target = self._next_seq - 1
        if target >= 0:
            self.wait_durable(target)

    # ------------------------------------------------------------------
    # Leader protocol
    # ------------------------------------------------------------------

    def _lead(self, seq: int) -> None:
        """Write batches until ``seq`` is durable (leader role)."""
        while True:
            with self._cond:
                batch = self._queue[:BATCH_MAX]
                del self._queue[: len(batch)]
            if not batch:
                return  # a previous leader already covered seq
            try:
                self._wal.append_many([record for _seq, record in batch])
            except BaseException as exc:
                # The process "died" mid-commit: no record of this or
                # any later batch may be acknowledged.
                with self._cond:
                    self._poison = exc
                    self._cond.notify_all()
                raise
            with self._cond:
                self._durable_seq = batch[-1][0]
                # Metrics update inside the notify-time critical
                # section: the counters/histogram advance atomically
                # with the durable sequence, so an observer can never
                # see a batch acknowledged but uncounted (or counted
                # after a later poison made the numbers misleading).
                if self._metrics is not None:
                    self._metrics.counter("wal.group.batches").inc()
                    self._metrics.counter("wal.group.records").inc(len(batch))
                    self._metrics.histogram("wal.group.batch_size").observe(
                        len(batch)
                    )
                    if len(batch) == BATCH_MAX:
                        self._metrics.counter("wal.group.full_batches").inc()
                self._cond.notify_all()
            if self._durable_seq >= seq:
                return
