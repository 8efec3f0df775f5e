"""The embeddable shard core: indices + persistence + WAL recovery.

:class:`ShardEngine` owns everything one shard needs to serve on its
own — a document store with its generic value indices, the write-ahead
log and group-commit leader, the checkpoint manifests and the MVCC
concurrency controller.  It has **no knowledge of other shards**: the
coordinator (:mod:`repro.shard.coordinator`) places whole documents on
engines and merges their answers, and :class:`repro.database.Database`
is the degenerate single-shard deployment of the very same core.

Example::

    with ShardEngine("./shard-0", typed=("double",)) as engine:
        engine.load("persons", xml)
        engine.update_text(nid, "Prefect")          # logged
        hits = engine.query('//person[.//age = 42]')
    # power cut here? next open() replays the log.
"""

from __future__ import annotations

import os
import threading
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from ..core import IndexManager
from ..core.concurrency import active_view
from ..query import explain as _explain
from ..query import query as _query
from ..query import query_columns as _query_columns
from ..storage import faults
from ..storage.groupcommit import GroupCommitLog
from ..storage.persist import (
    document_bytes,
    document_from_bytes,
    index_config,
    load_manager,
    manifest_epoch,
    read_manifest,
    save_manager,
)
from ..storage.wal import (
    DELETE_ATTRIBUTE,
    DELETE_SUBTREE,
    INSERT_ATTRIBUTE,
    INSERT_XML,
    RENAME,
    TEXT_UPDATE,
    ReplayStats,
    WalRecord,
    WriteAheadLog,
    replay_records,
)
from ..xmldb.columns import RowColumns

__all__ = ["ShardEngine", "RecoveryReport", "require_one_mode"]

_WAL_FILE = "wal.log"

#: Width of each shard's private nid range (shard ``k`` allocates from
#: ``k << NID_RANGE_BITS``): no two shards ever mint the same node id,
#: so a migrated document keeps its nids and clients keep using ids
#: they learned before the move.
NID_RANGE_BITS = 48

#: Keywords of engine modes that no longer exist, each with the one
#: value still accepted (the setting every engine now runs with).
_ONE_MODE = {"concurrent": True, "group_commit": True,
             "group_batch_wait_ms": 0}


def require_one_mode(**settings) -> None:
    """Reject a setting of a removed engine mode.

    Every engine is concurrent and group-committed and its commit
    leader never lingers; older callers may still pass those settings,
    but only with the values that describe this one mode.
    """
    for name, value in settings.items():
        if value != _ONE_MODE[name]:
            raise ValueError(
                f"{name}={value!r}: that engine mode was removed; every "
                f"engine runs with {name}={_ONE_MODE[name]!r}"
            )


@dataclass(frozen=True)
class RecoveryReport:
    """What opening an existing shard found in its WAL.

    * ``replayed`` — records applied through the maintenance path;
    * ``skipped_epoch`` — records from epochs the committed snapshot
      already folded in (e.g. a crash landed between the snapshot
      commit and the WAL truncate);
    * ``rejected_crc`` — frames whose checksum or body failed to
      verify (bit flips, or garbage after a torn frame);
    * ``torn_tail`` — incomplete final frames from a crash mid-append;
    * ``wal_format`` — on-disk WAL format version that was read back.
    """

    replayed: int = 0
    skipped_epoch: int = 0
    rejected_crc: int = 0
    torn_tail: int = 0
    wal_format: int = 0

    @property
    def clean(self) -> bool:
        return not (self.replayed or self.skipped_epoch
                    or self.rejected_crc or self.torn_tail)


class ShardEngine:
    """One persistent, WAL-protected XML index shard.

    Args:
        path: Shard directory (created when absent).
        string/typed/substring: Index configuration for a *new*
            shard; an existing one keeps its stored configuration.
        sync: WAL durability (``"none"``/``"flush"``/``"fsync"``).
        checkpoint_every: Auto-checkpoint after this many logged
            updates (0 disables; explicit :meth:`checkpoint` always
            works).
        shard_id: Position of this shard in a cluster (``None`` when
            the engine runs stand-alone, as under
            :class:`repro.database.Database`).
        retain_epochs: Time-travel window — keep this many published
            MVCC snapshots so :meth:`query` can answer ``as_of`` a
            historical epoch (0 keeps none — see docs/replication.md).
            Epochs are process-lifetime: a restart starts the window
            fresh.
        concurrent/group_commit/group_batch_wait_ms: Accepted only as
            ``True``/``True``/``0`` (see :func:`require_one_mode`).

    Every engine serves concurrently: queries pin snapshot-isolated
    read views, text updates run under MVCC, structural updates stop
    the world (docs/concurrency.md), and writers commit through one
    :class:`~repro.storage.groupcommit.GroupCommitLog`, so concurrent
    writers share fsyncs.
    """

    def __init__(
        self,
        path: str,
        string: bool = True,
        typed: Iterable[str] = ("double",),
        substring: bool = False,
        sync: str = "flush",
        checkpoint_every: int = 10_000,
        shard_id: int | None = None,
        retain_epochs: int = 0,
        *,
        concurrent: bool = True,
        group_commit: bool = True,
        group_batch_wait_ms: float = 0,
    ):
        require_one_mode(concurrent=concurrent, group_commit=group_commit,
                         group_batch_wait_ms=group_batch_wait_ms)
        self.path = path
        self.shard_id = shard_id
        #: Bumped by every load/unload.  Those force checkpoints and
        #: are NOT WAL-logged, so a log shipper cannot see them in the
        #: frame stream; the stamp travels in the replication manifest
        #: instead and forces followers into a full resync.
        self.bulk_stamp = 0
        self._checkpoint_every = checkpoint_every
        self._pending = 0
        self._pending_lock = threading.Lock()
        wal_path = os.path.join(path, _WAL_FILE)
        manifest = read_manifest(path)
        self.checkpoint_epoch = manifest_epoch(manifest)
        self._committed = None
        if manifest is not None:
            self.manager = load_manager(path, manifest)
            self._remember(manifest)
            self._reserve_shard_nids()
            stats = ReplayStats()
            replayed = skipped = 0
            for record in replay_records(wal_path, stats):
                if record.epoch < self.checkpoint_epoch:
                    # Already folded into the committed snapshot (a
                    # crash hit between snapshot commit and WAL
                    # truncate); replaying would double-apply it.
                    skipped += 1
                    continue
                self._apply(record)
                replayed += 1
            self.recovered_records = replayed
            self.recovery = RecoveryReport(
                replayed=replayed,
                skipped_epoch=skipped,
                rejected_crc=stats.rejected_crc,
                torn_tail=stats.torn_tail,
                wal_format=stats.format_version,
            )
            if replayed:
                # Fold the replayed tail into a fresh checkpoint (which
                # writes only the documents the tail touched).
                faults.crashpoint("recovery.before_refold")
                self._write_snapshot()
                faults.crashpoint("recovery.refolded")
        else:
            os.makedirs(path, exist_ok=True)
            self.manager = IndexManager(
                string=string, typed=tuple(typed), substring=substring
            )
            self._reserve_shard_nids()
            self._write_snapshot()
            self.recovered_records = 0
            self.recovery = RecoveryReport()
        self._record_recovery_metrics()
        self._wal = WriteAheadLog(
            wal_path, sync=sync, metrics=self.manager.metrics,
            epoch=self.checkpoint_epoch,
        )
        if not self.recovery.clean or self._wal.needs_upgrade:
            # Replayed records are folded, stale/corrupt records must
            # not survive, and legacy logs upgrade to the framed format.
            self._wal.truncate(epoch=self.checkpoint_epoch)
        if retain_epochs:
            self.manager.concurrency.set_retention(retain_epochs)
        self._group = GroupCommitLog(self._wal, metrics=self.manager.metrics)

    def _reserve_shard_nids(self) -> None:
        """Move the nid allocator into this shard's private range (a
        no-op outside a cluster, and on reopen — the persisted counter
        is already in range)."""
        if self.shard_id:
            self.manager.store.reserve_nids(
                self.shard_id << NID_RANGE_BITS)

    def _remember(self, manifest: dict) -> None:
        """Record the committed snapshot the next checkpoint may reuse
        files of: each document's stem and the change stamp its files
        hold, plus the index configuration they were written under.
        Version-1 manifests (epoch 0, unsuffixed stems) are never
        reused."""
        documents = self.manager.store.documents
        self._committed = None if manifest_epoch(manifest) == 0 else (
            manifest["indexes"],
            {name: (stem, documents[name].stamp)
             for name, stem in manifest["documents"].items()},
        )

    def _write_snapshot(self) -> None:
        """Commit the next checkpoint epoch, serialising only the
        documents whose change stamp moved since the last commit (all of
        them when the index configuration changed)."""
        manager = self.manager
        committed, self._committed = self._committed, None
        reuse = {}
        if committed is not None and committed[0] == index_config(manager):
            documents = manager.store.documents
            reuse = {
                name: stem for name, (stem, stamp) in committed[1].items()
                if name in documents and documents[name].stamp == stamp
            }
        manifest = save_manager(
            manager, self.path, epoch=self.checkpoint_epoch + 1, reuse=reuse
        )
        self.checkpoint_epoch = manifest["epoch"]
        self._remember(manifest)
        metrics = manager.metrics
        metrics.counter("persist.documents_reused").inc(len(reuse))
        metrics.counter("persist.documents_written").inc(
            len(manifest["documents"]) - len(reuse))

    def _record_recovery_metrics(self) -> None:
        metrics = self.manager.metrics
        # Listed from the open on, so a clean open reports writing 0.
        metrics.counter("persist.documents_written")
        metrics.counter("persist.documents_reused")
        report = self.recovery
        if report.replayed:
            metrics.counter("wal.recovery.replayed").inc(report.replayed)
        if report.skipped_epoch:
            metrics.counter("wal.recovery.skipped_epoch").inc(
                report.skipped_epoch
            )
        if report.rejected_crc:
            metrics.counter("wal.recovery.rejected_crc").inc(
                report.rejected_crc
            )
        if report.torn_tail:
            metrics.counter("wal.recovery.torn_tail").inc(report.torn_tail)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def _apply(self, record: WalRecord) -> None:
        manager = self.manager
        if record.kind == TEXT_UPDATE:
            manager.update_text(record.nid, record.text)
        elif record.kind == INSERT_XML:
            before = record.extra - 1 if record.extra else None
            manager.insert_xml(record.nid, record.text, before_nid=before)
        elif record.kind == DELETE_SUBTREE:
            manager.delete_subtree(record.nid)
        elif record.kind == INSERT_ATTRIBUTE:
            manager.insert_attribute(record.nid, record.name, record.text)
        elif record.kind == DELETE_ATTRIBUTE:
            manager.delete_attribute(record.nid)
        elif record.kind == RENAME:
            manager.rename(record.nid, record.name)

    def _bump_pending(self) -> None:
        with self._pending_lock:
            self._pending += 1
            due = (
                self._checkpoint_every
                and self._pending >= self._checkpoint_every
            )
            if due:
                # Arm the trigger once: reset while still holding the
                # lock, so a second writer crossing the threshold
                # concurrently cannot also see due=True and run a
                # back-to-back stop-the-world checkpoint.
                self._pending = 0
        if due:
            self.checkpoint()

    def _write_scope(self):
        """Serializes apply + WAL enqueue so log order equals apply
        order across writer threads.  Raises instead of deadlocking if
        the calling thread is inside a read view (it holds the latch
        shared; waiting on the writer lock here could cycle with a
        structural writer draining shared holders)."""
        controller = self.manager.concurrency
        controller.check_write_allowed()
        return controller.write_lock

    def _logged(self, apply, record: WalRecord):
        """Run one logged update: apply it and make it durable.

        The in-memory apply and the WAL enqueue happen under the
        writer lock; the *wait* for durability happens outside it, so
        the next writer's apply overlaps this record's fsync and
        several writers share one fsync (group commit).  The update is
        acknowledged — this method returns — only once its record is
        on storage at the configured sync level.
        """
        with self._write_scope():
            result = apply()
            seq = self._group.enqueue(record)
        self._group.wait_durable(seq)
        self._bump_pending()
        return result

    # ------------------------------------------------------------------
    # Document management
    # ------------------------------------------------------------------

    def load(self, name: str, xml: str):
        """Shred + index a document; forces a checkpoint (bulk loads
        are snapshot-sized events, not log records).  The checkpoint
        serialises only the new document and any other changed since
        the last one, so loading *n* documents writes each once."""
        doc = self.manager.load(name, xml)
        self.bulk_stamp += 1
        self.checkpoint()
        return doc

    def unload(self, name: str) -> None:
        self.manager.unload(name)
        self.bulk_stamp += 1
        self.checkpoint()

    def export_document(self, name: str) -> bytes:
        """One document in the on-disk snapshot encoding — the unit of
        transfer for shard migration.

        The encoding carries this engine's nids; the importer remaps
        them (:meth:`import_document`).  Runs under the non-structural
        exclusive latch so the columns are a consistent cut, without
        invalidating session pins.
        """
        with self.manager.concurrency.exclusive(structural=False):
            doc = self.manager.store.document(name)
            return document_bytes(doc)

    def import_document(self, name: str, payload: bytes):
        """Adopt a document exported from another shard.

        Decodes the snapshot encoding, adopts the nodes (original
        nids are kept — shard nid ranges are disjoint), rebuilds index
        fields with the ordinary creation pass, and checkpoints —
        like :meth:`load`, an import
        is a snapshot-sized event (``bulk_stamp`` bump), not a log
        record, so a tailing follower resyncs rather than replays.
        """
        doc = document_from_bytes(name, payload)
        doc = self.manager.adopt_document(doc)
        self.bulk_stamp += 1
        self.checkpoint()
        return doc

    def document_stats(self) -> dict[str, dict[str, int]]:
        """Per-document placement metrics: node count and column-store
        byte size — the inputs to rebalancing policies."""
        return {
            name: {"nodes": len(doc), "bytes": doc.byte_size()}
            for name, doc in self.manager.store.documents.items()
        }

    @property
    def store(self):
        return self.manager.store

    # ------------------------------------------------------------------
    # Logged updates
    # ------------------------------------------------------------------

    def update_text(self, nid: int, new_text: str) -> int:
        return self._logged(
            lambda: self.manager.update_text(nid, new_text),
            WalRecord(TEXT_UPDATE, nid, text=new_text),
        )

    def insert_xml(self, parent_nid: int, fragment: str,
                   before_nid: int | None = None):
        return self._logged(
            lambda: self.manager.insert_xml(parent_nid, fragment, before_nid),
            WalRecord(
                INSERT_XML,
                parent_nid,
                text=fragment,
                extra=0 if before_nid is None else before_nid + 1,
            ),
        )

    def delete_subtree(self, nid: int):
        return self._logged(
            lambda: self.manager.delete_subtree(nid),
            WalRecord(DELETE_SUBTREE, nid),
        )

    def insert_attribute(self, owner_nid: int, name: str, value: str):
        return self._logged(
            lambda: self.manager.insert_attribute(owner_nid, name, value),
            WalRecord(INSERT_ATTRIBUTE, owner_nid, text=value, name=name),
        )

    def delete_attribute(self, attr_nid: int):
        return self._logged(
            lambda: self.manager.delete_attribute(attr_nid),
            WalRecord(DELETE_ATTRIBUTE, attr_nid),
        )

    def rename(self, nid: int, new_name: str) -> None:
        self._logged(
            lambda: self.manager.rename(nid, new_name),
            WalRecord(RENAME, nid, name=new_name),
        )

    def apply_logged(self, record: WalRecord):
        """Apply a shipped WAL record through the *logged* update path.

        A replication follower replays the primary's frames with this:
        the record lands in the follower's own WAL (re-stamped with the
        follower's checkpoint epoch), so a promoted follower recovers
        through ordinary WAL replay like any other engine.
        """
        return self._logged(
            lambda: self._apply(record),
            WalRecord(record.kind, record.nid, text=record.text,
                      name=record.name, extra=record.extra),
        )

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def read_view(self):
        """A pinned snapshot view (context manager).  Queries and
        lookups inside the scope all run at the pinned epoch."""
        return self.manager.read_view()

    def _read_scope(self, as_of: int | None = None):
        """The view one read evaluates under: the retained snapshot of
        epoch ``as_of``; else an auto-pinned view so the whole
        evaluation runs at one epoch; else nothing (the caller already
        pinned a view)."""
        controller = self.manager.concurrency
        if as_of is not None:
            return controller.read_view_as_of(as_of)
        if active_view() is None:
            return controller.read_view()
        return nullcontext()

    def retained_epochs(self) -> list[int]:
        """Epochs answerable with ``as_of`` right now (oldest first;
        always includes the current epoch).  Empty window unless the
        engine was opened with ``retain_epochs``."""
        return self.manager.concurrency.retained_epochs()

    def query(self, text: str, document: str | None = None,
              use_indexes: bool | str = True,
              as_of: int | None = None) -> list[int]:
        with self._read_scope(as_of):
            return _query(self.manager, text, document, use_indexes)

    def query_rows(self, text: str, document: str | None = None,
                   use_indexes: bool | str = True,
                   as_of: int | None = None) -> list[tuple[str, int, int]]:
        """Like :meth:`query`, but returns ``(document, pre, nid)``
        rows instead of bare nids.

        nids are surrogates of one engine's nid space; ``(document,
        pre)`` addresses are stable across *placements*, which is what
        the scatter-gather coordinator merges and what the cross-shard
        differential suite compares bit-for-bit.
        """
        return self.query_columns(text, document, use_indexes,
                                  as_of=as_of).rows()

    def query_columns(self, text: str, document: str | None = None,
                      use_indexes: bool | str = True,
                      as_of: int | None = None) -> RowColumns:
        """The answer of :meth:`query_rows` as packed columns (what the
        server sends), built from the executor's row array at the
        evaluation's own pinned epoch."""
        with self._read_scope(as_of):
            return _query_columns(self.manager, text, document, use_indexes)

    def explain(self, text: str, document: str | None = None,
                execute: bool = False):
        """Plan report (see :func:`repro.query.planner.explain`): an
        :class:`~repro.query.planner.Explanation` comparable to the
        legacy summary strings and carrying per-document plan trees.
        Pinned like :meth:`query`: pricing and (with ``execute=True``)
        operator execution must not straddle epochs."""
        with self._read_scope():
            return _explain(self.manager, text, document, execute=execute)

    def metrics(self) -> dict:
        """Snapshot of runtime counters and timers (queries, plan
        cache, index builds/updates, statistics refreshes, WAL)."""
        return self.manager.metrics.snapshot()

    def lookup_string(self, value: str) -> Iterator[int]:
        return self.manager.lookup_string(value)

    def lookup_typed_equal(self, type_name: str, value: Any) -> Iterator[int]:
        return self.manager.lookup_typed_equal(type_name, value)

    def lookup_typed_range(self, type_name: str, low=None, high=None,
                           **kwargs) -> Iterator[tuple[Any, int]]:
        return self.manager.lookup_typed_range(type_name, low, high, **kwargs)

    def lookup_contains(self, needle: str) -> Iterator[int]:
        return self.manager.lookup_contains(needle)

    def lookup_regex(self, pattern: str) -> Iterator[int]:
        return self.manager.lookup_regex(pattern)

    def verify(self):
        """First-principles integrity check (see repro.core.verify)."""
        from ..core.verify import verify_database

        return verify_database(self.manager)

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    def checkpoint(self) -> None:
        """Snapshot everything and reset the log.

        The snapshot commits atomically under the next checkpoint epoch
        (manifest written last); only then is the WAL truncated and
        moved to the new epoch.  A crash in between is safe: recovery
        skips WAL records whose epoch predates the committed snapshot.
        A checkpoint costs O(changed documents): a document unchanged
        since the last commit keeps its files (and their older stem),
        so only the manifest names it again.

        This is a stop-the-world operation: the exclusive latch drains
        readers and writers, and any queued group-commit records are
        flushed before the snapshot, so the truncated WAL never holds an
        applied-but-unwritten update.
        """
        # A checkpoint drains readers but changes no indexed state, so
        # it must not invalidate session pins.
        with self.manager.concurrency.exclusive(structural=False):
            self._group.drain()
            self._write_snapshot()
            faults.crashpoint("checkpoint.after_snapshot")
            self._wal.truncate(epoch=self.checkpoint_epoch)
            with self._pending_lock:
                self._pending = 0

    def close(self, checkpoint: bool = True) -> None:
        """Flush (optionally checkpoint) and release the WAL handle.

        The handle is released even when the checkpoint or the group
        drain raises (e.g. a poisoned :class:`GroupCommitLog`
        re-raising its injected crash): a server restarting after a
        poison must not hold the old file open.  Each document's cached
        column view is dropped too: the view holds its document, so the
        pair is a cycle, and a closed engine is freed by reference
        counting once dropped, not by the cyclic collector.
        """
        try:
            if checkpoint:
                self.checkpoint()
            elif not self._group.poisoned:
                self._group.drain()
        finally:
            self._wal.close()
            for doc in self.manager.store.documents.values():
                doc.invalidate_columns()

    def __enter__(self) -> "ShardEngine":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        # On an exception, keep the WAL so recovery replays it.
        self.close(checkpoint=exc_type is None)
