"""Write-ahead log for the persistent database facade.

Checkpoints (:func:`~repro.storage.persist.save_manager` snapshots of
every changed document) are expensive; the WAL makes individual updates
durable between them.
Each record describes one logical update; recovery replays the log over
the last snapshot through the ordinary maintenance path, which is
deterministic (node-id allocation is a plain counter restored by the
snapshot, so replayed structural updates re-create identical nids).

Wire format (version 2, framed): the file carries the standard
``RXDB`` header with version 2, then a sequence of frames::

    u32 body length | u32 CRC32(body) | body

where the body is a varint **checkpoint epoch** followed by the record
payload — ``u8`` record type, then type-specific fields (varint
integers and varint-length-prefixed UTF-8 strings).  The length prefix
and checksum mean a torn or bit-flipped tail can never decode as a
valid shorter record; the epoch lets recovery skip records that a
committed snapshot already folded in (see ``docs/durability.md``).

Version-1 files (no frames, no epochs) still replay; their records
report epoch 0, which every snapshot epoch guard treats as
"not yet folded".
"""

from __future__ import annotations

import os
import struct
import sys
import zlib
from dataclasses import dataclass, replace
from typing import BinaryIO, Iterator

from . import faults
from .format import (
    FormatError,
    decode_varint,
    encode_varint,
    read_header,
    write_header,
)

__all__ = [
    "WalRecord",
    "ReplayStats",
    "TEXT_UPDATE",
    "INSERT_XML",
    "DELETE_SUBTREE",
    "INSERT_ATTRIBUTE",
    "DELETE_ATTRIBUTE",
    "RENAME",
    "WAL_VERSION",
    "WAL_HEADER_SIZE",
    "WriteAheadLog",
    "replay_records",
    "decode_frames",
    "tail_frames",
]

TEXT_UPDATE = 1
INSERT_XML = 2
DELETE_SUBTREE = 3
INSERT_ATTRIBUTE = 4
RENAME = 5
DELETE_ATTRIBUTE = 6

_KNOWN_TYPES = {
    TEXT_UPDATE,
    INSERT_XML,
    DELETE_SUBTREE,
    INSERT_ATTRIBUTE,
    RENAME,
    DELETE_ATTRIBUTE,
}

#: Header version marking a CRC-framed log body.
WAL_VERSION = 2

#: Bytes of the ``RXDB`` header that precede the first frame — the
#: start-of-stream offset a log shipper's cursor begins at.
WAL_HEADER_SIZE = 8

_FRAME = struct.Struct("<II")


@dataclass(frozen=True)
class WalRecord:
    """One logged update.  Field use varies by ``kind``:

    * TEXT_UPDATE:      nid, text
    * INSERT_XML:       nid (parent), text (fragment), extra (before_nid + 1, 0 = none)
    * DELETE_SUBTREE:   nid
    * INSERT_ATTRIBUTE: nid (owner), name, text (value)
    * RENAME:           nid, name
    * DELETE_ATTRIBUTE: nid (replay re-checks the attribute node kind;
      logs from before this record kind carry DELETE_SUBTREE instead and
      still replay)

    ``epoch`` is the checkpoint epoch the record was appended under
    (0 for records read back from a version-1 log).
    """

    kind: int
    nid: int
    text: str = ""
    name: str = ""
    extra: int = 0
    epoch: int = 0


@dataclass
class ReplayStats:
    """What :func:`replay_records` saw while scanning a log."""

    records: int = 0
    torn_tail: int = 0
    rejected_crc: int = 0
    format_version: int = WAL_VERSION


def _encode_string(value: str) -> bytes:
    data = value.encode("utf-8")
    return encode_varint(len(data)) + data


def _decode_string(payload: bytes, offset: int) -> tuple[str, int]:
    length, offset = decode_varint(payload, offset)
    end = offset + length
    if end > len(payload):
        raise FormatError("truncated string")
    return payload[offset:end].decode("utf-8"), end


def encode_record(record: WalRecord) -> bytes:
    out = bytearray([record.kind])
    out += encode_varint(record.nid)
    out += _encode_string(record.text)
    out += _encode_string(record.name)
    out += encode_varint(record.extra)
    return bytes(out)


def decode_record(payload: bytes, offset: int) -> tuple[WalRecord, int]:
    kind = payload[offset]
    if kind not in _KNOWN_TYPES:
        raise FormatError(f"unknown WAL record type {kind}")
    offset += 1
    nid, offset = decode_varint(payload, offset)
    text, offset = _decode_string(payload, offset)
    name, offset = _decode_string(payload, offset)
    extra, offset = decode_varint(payload, offset)
    return WalRecord(kind, nid, text, name, extra), offset


def encode_frame(record: WalRecord, epoch: int) -> bytes:
    """Frame a record for a version-2 log."""
    body = encode_varint(epoch) + encode_record(record)
    return _FRAME.pack(len(body), zlib.crc32(body)) + body


class WriteAheadLog:
    """Append-only log file.

    Args:
        path: Log file path (created framed when absent).
        sync: ``"none"`` (buffered), ``"flush"`` (flush per append) or
            ``"fsync"`` (flush + fsync per append).
        metrics: Optional :class:`repro.obs.MetricsRegistry`; appends
            and truncations are counted and append latency is timed.
        epoch: Checkpoint epoch stamped on appended records; updated by
            :meth:`truncate` after each checkpoint.

    ``needs_upgrade`` is true when the file on disk predates the framed
    format (or has an unreadable header); the owner should
    :meth:`truncate` after replaying it so new writes are framed.
    """

    def __init__(self, path: str, sync: str = "flush", metrics=None,
                 epoch: int = 0):
        if sync not in ("none", "flush", "fsync"):
            raise ValueError("sync must be 'none', 'flush' or 'fsync'")
        self.path = path
        self._sync = sync
        self._metrics = metrics
        self.epoch = epoch
        #: ``(epoch, final_size)`` of the previous log file at its last
        #: :meth:`truncate` — lets a log shipper prove a follower had
        #: consumed the old file completely before switching it to the
        #: fresh one (see ``repro.repl``).
        self.last_truncate: tuple[int, int] | None = None
        fresh = not os.path.exists(path) or os.path.getsize(path) == 0
        self.needs_upgrade = False
        if not fresh:
            try:
                with open(path, "rb") as fh:
                    self.needs_upgrade = read_header(fh) != WAL_VERSION
            except FormatError:
                self.needs_upgrade = True
        self._fh: BinaryIO = open(path, "ab")
        if fresh:
            write_header(self._fh, version=WAL_VERSION)
            self._flush()

    def _flush(self) -> None:
        if self._fh.closed:
            return  # idempotent close/flush: nothing left to sync
        self._fh.flush()
        if self._sync == "fsync":
            os.fsync(self._fh.fileno())
            if self._metrics is not None:
                self._metrics.counter("wal.fsyncs").inc()

    def append(self, record: WalRecord) -> None:
        """Append one record: a batch of one."""
        self.append_many([record])

    def append_many(self, records: list[WalRecord]) -> None:
        """Append a batch of records with ONE write and one flush/fsync.

        This is the group-commit primitive: the frames are
        concatenated and handed to the OS as a single write, so the
        whole batch costs the same durable-media round trip as a
        single record.  Frames are still individually CRC-guarded, so
        a crash mid-batch recovers the longest valid prefix — exactly
        the acknowledgment contract of
        :class:`repro.storage.groupcommit.GroupCommitLog`.
        """
        if not records:
            return
        payload = b"".join(
            encode_frame(record, self.epoch) for record in records
        )
        timer = (
            self._metrics.timer("wal.append").time()
            if self._metrics is not None
            else None
        )
        if timer is not None:
            timer.__enter__()
        try:
            faults.fault_write(self._fh, payload, "wal.append")
            if self._sync != "none":
                self._flush()
            faults.crashpoint("wal.appended")
        finally:
            if timer is not None:
                # Forward the real exception triple (mirrors the
                # ReadView.__exit__ fix): a crashed write must not be
                # recorded as a successful append timing.
                timer.__exit__(*sys.exc_info())
        if self._metrics is not None:
            self._metrics.counter("wal.appends").inc(len(records))

    def truncate(self, epoch: int | None = None) -> None:
        """Reset the log after a checkpoint.

        The fresh header honors the configured sync level (an unsynced
        empty header after a crash would replay as "no log at all",
        which is safe, but the file must never look like the *old* log).
        """
        self._flush()
        try:
            final_size = os.path.getsize(self.path)
        except OSError:  # pragma: no cover - fresh file races only
            final_size = WAL_HEADER_SIZE
        self.last_truncate = (self.epoch, final_size)
        if epoch is not None:
            self.epoch = epoch
        self._fh.close()
        self._fh = open(self.path, "wb")
        write_header(self._fh, version=WAL_VERSION)
        self._flush()
        self._fh.close()
        self._fh = open(self.path, "ab")
        self.needs_upgrade = False
        faults.crashpoint("wal.truncated")
        if self._metrics is not None:
            self._metrics.counter("wal.truncates").inc()

    def position(self) -> int:
        """Byte offset of the current end of the visible log.

        This is the cursor a log shipper resumes from: everything
        before it is complete, flushed frames (when ``sync`` is not
        ``"none"``, in which case buffered bytes may still be pending —
        shipping then lags the buffer, never races it).
        """
        try:
            return os.path.getsize(self.path)
        except OSError:  # pragma: no cover - log removed underneath us
            return WAL_HEADER_SIZE

    def close(self) -> None:
        """Flush and release the handle.  Idempotent: a second close
        (e.g. the drain path after a failed checkpoint already closed
        the log) is a no-op instead of ``ValueError: I/O operation on
        closed file``."""
        if self._fh.closed:
            return
        self._flush()
        self._fh.close()


def _replay_framed(payload: bytes, stats: ReplayStats) -> Iterator[WalRecord]:
    offset = 0
    size = len(payload)
    while offset < size:
        if offset + _FRAME.size > size:
            stats.torn_tail += 1
            return
        length, crc = _FRAME.unpack_from(payload, offset)
        body = payload[offset + _FRAME.size : offset + _FRAME.size + length]
        if len(body) < length:
            stats.torn_tail += 1
            return
        if zlib.crc32(body) != crc:
            stats.rejected_crc += 1
            return  # everything after a corrupt frame is unreliable
        try:
            epoch, body_offset = decode_varint(body, 0)
            record, body_offset = decode_record(body, body_offset)
            if body_offset != length:
                raise FormatError("trailing bytes in WAL frame")
        except (FormatError, IndexError):
            # The checksum matched but the body is undecodable: treat
            # as corruption, not as a clean end of log.
            stats.rejected_crc += 1
            return
        stats.records += 1
        yield replace(record, epoch=epoch)
        offset += _FRAME.size + length


def _replay_legacy(payload: bytes, stats: ReplayStats) -> Iterator[WalRecord]:
    offset = 0
    while offset < len(payload):
        try:
            record, offset = decode_record(payload, offset)
        except (FormatError, IndexError):
            stats.torn_tail += 1
            return  # torn final record from a crash mid-append
        stats.records += 1
        yield record


def _frame_boundary(payload: bytes) -> int:
    """Length of the longest prefix of ``payload`` made of complete
    frames (by length prefix; CRCs are the receiver's job)."""
    offset = 0
    size = len(payload)
    while offset + _FRAME.size <= size:
        length, _crc = _FRAME.unpack_from(payload, offset)
        if offset + _FRAME.size + length > size:
            break
        offset += _FRAME.size + length
    return offset


def tail_frames(path: str, offset: int,
                max_bytes: int = 1 << 22) -> tuple[bytes, int]:
    """Read complete frames from a live version-2 log for shipping.

    Returns ``(blob, next_offset)`` where ``blob`` holds zero or more
    whole frames starting at ``offset`` and ``next_offset`` is where
    the next call should resume.  A concurrent append can leave a
    half-visible frame at the end of the file; it is trimmed here so a
    shipped blob always decodes cleanly — the torn bytes are re-read
    once the writer finishes them.  Offsets are only meaningful against
    one log incarnation (checkpoint epoch); :class:`WriteAheadLog`
    truncation invalidates them, which the shipper detects via the
    epoch carried alongside (see ``repro.repl``).
    """
    if offset < WAL_HEADER_SIZE:
        offset = WAL_HEADER_SIZE
    with open(path, "rb") as fh:
        fh.seek(offset)
        chunk = fh.read(max_bytes)
    consumed = _frame_boundary(chunk)
    return chunk[:consumed], offset + consumed


def decode_frames(blob: bytes) -> list[WalRecord]:
    """Decode a shipped blob of complete frames into records.

    Unlike local replay, a torn or CRC-rejected frame here means the
    transport delivered damaged data — that is an error, not a clean
    end of log, so it raises :class:`FormatError` instead of silently
    truncating the batch.
    """
    stats = ReplayStats()
    records = list(_replay_framed(blob, stats))
    if stats.torn_tail or stats.rejected_crc:
        raise FormatError(
            "damaged replication frame "
            f"(torn={stats.torn_tail} crc={stats.rejected_crc})"
        )
    return records


def replay_records(path: str,
                   stats: ReplayStats | None = None) -> Iterator[WalRecord]:
    """Read back all complete records; a torn or corrupt tail stops the
    scan (and is counted in ``stats`` when given).  Handles both framed
    version-2 logs and legacy version-1 logs."""
    if stats is None:
        stats = ReplayStats()
    if not os.path.exists(path):
        return
    with open(path, "rb") as fh:
        try:
            version = read_header(fh)
        except FormatError:
            return  # empty/garbage log: nothing to replay
        payload = faults.filter_read(fh.read(), "wal.replay")
    stats.format_version = version
    if version == WAL_VERSION:
        yield from _replay_framed(payload, stats)
    else:
        yield from _replay_legacy(payload, stats)
