"""Primary-side log shipping: snapshot manifests and WAL frame serving.

These are the engine-level bodies of the server's ``repl.*`` ops.
They are stateless — the *follower* owns its replication cursor
``(wal_epoch, offset)`` and presents it on every ``repl.wal`` call, so
a primary restart loses nothing and any number of followers can tail
independently.

Catch-up protocol (docs/replication.md):

* ``manifest_info`` — the committed checkpoint snapshot: its epoch,
  the data files to fetch, and the WAL cursor the snapshot pairs with
  (the *basis*).  Initial sync and full resync both start here.
* ``fetch_chunk`` — ranged reads of one snapshot file, base64-framed.
  Checkpoints GC files the new manifest no longer names, so a fetcher
  re-validates the manifest epoch when a file disappears mid-transfer
  and retries.
* ``wal_chunk`` — the tail path.  A cursor at the live WAL's epoch
  gets complete frames from its offset.  A cursor equal to the log's
  recorded ``last_truncate`` mark had consumed *everything* the last
  checkpoint folded, so it fast-forwards ("reset") to the fresh log —
  no file transfer.  Anything else (lagged more than one checkpoint,
  primary restarted, bulk load/unload happened) answers "resync".

Bulk loads/unloads are checkpoint-sized events, not WAL records —
they are invisible to the frame stream.  The engine's ``bulk_stamp``
counts them; it rides in every response and a mismatch with the
follower's recorded stamp forces a resync instead of a silently
incomplete fast-forward.
"""

from __future__ import annotations

import base64
import os

from ..storage.persist import manifest_epoch, read_manifest
from ..storage.persist import _stem_of_data_file  # shared layout rule
from ..storage.wal import WAL_HEADER_SIZE, tail_frames

__all__ = [
    "MANIFEST_FILE",
    "manifest_info",
    "fetch_chunk",
    "wal_chunk",
    "DEFAULT_CHUNK",
]

MANIFEST_FILE = "MANIFEST.json"

#: Default ranged-read size; comfortably under MAX_FRAME_BYTES after
#: base64 expansion (4/3) plus JSON envelope.
DEFAULT_CHUNK = 4 << 20


def snapshot_files(path: str) -> list[str]:
    """Files of the *committed* snapshot: the manifest plus every data
    file its stems reference, whatever epoch wrote them (unreferenced
    files are GC'd and never listed)."""
    manifest = read_manifest(path)
    if manifest is None:
        raise FileNotFoundError(f"no committed snapshot in {path!r}")
    referenced = set(manifest.get("documents", {}).values())
    files = [MANIFEST_FILE]
    for entry in sorted(os.listdir(path)):
        stem = _stem_of_data_file(entry)
        if stem is not None and stem in referenced:
            files.append(entry)
    return files


def manifest_info(engine) -> dict:
    """The ``repl.manifest`` response body for ``engine``."""
    manifest = read_manifest(engine.path)
    files = snapshot_files(engine.path)
    sizes = {
        name: os.path.getsize(os.path.join(engine.path, name))
        for name in files
    }
    return {
        "epoch": manifest_epoch(manifest),
        "files": files,
        "sizes": sizes,
        # The WAL cursor this snapshot pairs with: replay the current
        # log from its start, skipping records below the snapshot epoch
        # (same rule as local recovery).
        "wal_epoch": engine._wal.epoch,
        "wal_offset": WAL_HEADER_SIZE,
        "bulk_stamp": engine.bulk_stamp,
    }


def fetch_chunk(engine, name: str, offset: int,
                length: int = DEFAULT_CHUNK) -> dict:
    """A ranged read of one snapshot file (``repl.fetch``)."""
    if os.sep in name or (os.altsep and os.altsep in name) or name == "..":
        raise ValueError(f"illegal snapshot file name {name!r}")
    if name != MANIFEST_FILE and _stem_of_data_file(name) is None:
        raise ValueError(f"not a snapshot file: {name!r}")
    path = os.path.join(engine.path, name)
    length = max(0, min(int(length), DEFAULT_CHUNK))
    with open(path, "rb") as fh:
        fh.seek(int(offset))
        data = fh.read(length)
        size = os.fstat(fh.fileno()).st_size
    return {
        "data": base64.b64encode(data).decode("ascii"),
        "eof": int(offset) + len(data) >= size,
        "size": size,
    }


def wal_chunk(engine, epoch: int, offset: int,
              max_bytes: int = DEFAULT_CHUNK) -> dict:
    """Serve WAL frames at a follower's cursor (``repl.wal``).

    Response ``status``:

    * ``"frames"`` — base64 frames from ``offset``; advance the cursor
      to ``next`` (possibly no progress when the primary is idle).
    * ``"reset"`` — the cursor had fully consumed the pre-checkpoint
      log; fast-forward to ``(epoch, next)`` on the fresh log.
    * ``"resync"`` — the cursor is unusable (lagged past one
      checkpoint, primary restarted, or a bulk load/unload happened);
      go back to ``repl.manifest``.

    Every response carries the primary's ``bulk_stamp``; the *caller*
    compares it with the stamp its snapshot basis recorded and treats
    any difference as ``resync`` (see module docstring).
    """
    wal = engine._wal
    max_bytes = max(0, min(int(max_bytes), DEFAULT_CHUNK))
    current = wal.epoch
    stamp = engine.bulk_stamp
    if epoch == current:
        blob, next_offset = tail_frames(wal.path, int(offset), max_bytes)
        if wal.epoch != current:
            # A checkpoint truncated the file mid-read: the bytes may
            # belong to the fresh log.  The epoch always changes across
            # a truncate, so this check is sufficient; the follower
            # simply retries at the same cursor.
            return {"status": "retry", "bulk_stamp": stamp}
        return {
            "status": "frames",
            "data": base64.b64encode(blob).decode("ascii"),
            "next": next_offset,
            "epoch": current,
            "bulk_stamp": stamp,
        }
    mark = wal.last_truncate
    if mark is not None and (int(epoch), int(offset)) == tuple(mark):
        return {
            "status": "reset",
            "epoch": current,
            "next": WAL_HEADER_SIZE,
            "bulk_stamp": stamp,
        }
    return {"status": "resync", "bulk_stamp": stamp}
