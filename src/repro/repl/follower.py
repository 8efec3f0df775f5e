"""Read replicas: snapshot restore, WAL tailing, promotion, serving.

A :class:`Follower` owns a directory and a live
:class:`~repro.shard.engine.ShardEngine` built from the primary's
shipped checkpoint snapshot.  Shipped WAL frames are applied through
the engine's **logged** update path — the follower writes its own WAL
and takes its own checkpoints, so a promoted follower (or one
restarted after a crash) recovers exactly like any stand-alone engine.
The replication cursor is held in memory only and always in the
*primary's* terms; a follower restart simply resyncs from the latest
snapshot, which sidesteps every cursor/state atomicity problem.

Replication is asynchronous: the primary acknowledges writers without
waiting for followers, so a promoted follower serves the *shipped
prefix* — bounded staleness equal to the replication lag, never a torn
or reordered state (frames apply in log order).  The dead primary's
directory still holds every acknowledged record; restarting an engine
on it recovers the full set via ordinary WAL replay.

Snapshot files (``repl.fetch``) and WAL frames (``repl.wal``) arrive
as raw bytes in each response's frame tail (:mod:`repro.wire`): the
follower writes the files and replays the frames exactly as shipped.
"""

from __future__ import annotations

import os
import threading

from ..client import Client, ClientError
from ..server import DatabaseServer, RequestError, ServerThread
from ..shard.engine import ShardEngine
from ..storage.wal import decode_frames

__all__ = ["Follower", "FollowerServer", "ReplicationError"]


class ReplicationError(Exception):
    """Replication stream or sync failure (after internal retries)."""


class Follower:
    """Tail one primary into a local engine.

    Args:
        path: Local directory for the restored snapshot + own WAL.
        primary: ``(host, port)`` of the primary's server.
        poll_interval: Tail-thread sleep between ``repl.wal`` polls.
        retain_epochs: Time-travel window on the local engine
            (``repro-xml query --as-of`` against this follower).
        engine_kwargs: Extra :class:`ShardEngine` arguments.
    """

    def __init__(self, path: str, primary: tuple[str, int],
                 poll_interval: float = 0.02, retain_epochs: int = 0,
                 **engine_kwargs):
        self.path = path
        self.primary_addr = primary
        self.poll_interval = poll_interval
        self._retain = retain_epochs
        self._engine_kwargs = dict(engine_kwargs)
        self.engine: ShardEngine | None = None
        self.promoted = False
        #: Replication cursor, in the primary's terms.
        self._cursor_epoch = 0
        self._cursor_offset = 0
        self._basis_epoch = 0
        self._bulk_stamp = -1
        self.applied_records = 0
        self.resyncs = 0
        self._client: Client | None = None
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._lock = threading.Lock()  # serializes sync/poll/promote
        self.last_error: BaseException | None = None

    # ------------------------------------------------------------------
    # Snapshot restore
    # ------------------------------------------------------------------

    def _connect(self) -> Client:
        if self._client is None:
            host, port = self.primary_addr
            self._client = Client(host, port)
        return self._client

    def _disconnect(self) -> None:
        if self._client is not None:
            try:
                self._client.close()
            except OSError:
                pass
            self._client = None

    def sync(self, attempts: int = 5) -> None:
        """Full resync: restore the primary's committed snapshot and
        reopen the local engine on it.

        A checkpoint on the primary GCs the files of superseded
        epochs, so a transfer can lose a file mid-fetch; the whole
        fetch retries against the then-current manifest (bounded by
        ``attempts``).
        """
        with self._lock:
            self._sync_locked(attempts)

    def _sync_locked(self, attempts: int) -> None:
        client = self._connect()
        failure: BaseException | None = None
        for _attempt in range(attempts):
            info = client.call("repl.manifest")
            try:
                blobs = {
                    name: client.download("repl.fetch", name=name)
                    for name in info["files"]
                }
            except (ClientError, OSError) as exc:
                failure = exc
                continue
            # The snapshot is consistent only if no checkpoint landed
            # mid-transfer; re-read the epoch to be sure.
            if client.call("repl.manifest")["epoch"] != info["epoch"]:
                failure = ReplicationError("checkpoint raced the fetch")
                continue
            self._install(info, blobs)
            self.resyncs += 1
            return
        raise ReplicationError(
            f"snapshot sync failed after {attempts} attempts"
        ) from failure

    def _install(self, info: dict, blobs: dict[str, bytes]) -> None:
        # Keep ``self.engine`` pointing at the old (closed, but still
        # readable in memory) engine until the replacement is built:
        # unsynchronized readers polling ``follower.engine`` across a
        # resync see a stale snapshot — ordinary replication staleness
        # — never an AttributeError on a transient None.
        if self.engine is not None:
            self.engine.close(checkpoint=False)
        os.makedirs(self.path, exist_ok=True)
        # Drop every stale artifact (old snapshot files AND the local
        # WAL — its records are already folded into the fetched
        # snapshot or superseded by it).
        for entry in os.listdir(self.path):
            full = os.path.join(self.path, entry)
            if os.path.isfile(full):
                os.unlink(full)
        for name, blob in blobs.items():
            with open(os.path.join(self.path, name), "wb") as fh:
                fh.write(blob)
        self.engine = ShardEngine(
            self.path, retain_epochs=self._retain, **self._engine_kwargs
        )
        self._basis_epoch = info["epoch"]
        self._cursor_epoch = info["wal_epoch"]
        self._cursor_offset = info["wal_offset"]
        self._bulk_stamp = info["bulk_stamp"]

    # ------------------------------------------------------------------
    # Tailing
    # ------------------------------------------------------------------

    def poll_once(self) -> int:
        """One ``repl.wal`` round trip; returns records applied."""
        with self._lock:
            if self.promoted:
                return 0
            return self._poll_locked()

    def _poll_locked(self) -> int:
        client = self._connect()
        reply = client.call(
            "repl.wal",
            epoch=self._cursor_epoch,
            offset=self._cursor_offset,
        )
        if reply["bulk_stamp"] != self._bulk_stamp:
            # A load/unload happened: invisible to the frame stream by
            # design, so the snapshot is the only honest source.
            self._sync_locked(attempts=5)
            return 0
        status = reply["status"]
        if status == "retry":
            return 0
        if status == "reset":
            self._cursor_epoch = reply["epoch"]
            self._cursor_offset = reply["next"]
            return 0
        if status == "resync":
            self._sync_locked(attempts=5)
            return 0
        applied = 0
        for record in decode_frames(reply["data"]):
            if record.epoch < self._basis_epoch:
                # Folded into the snapshot we restored from.
                continue
            self.engine.apply_logged(record)
            applied += 1
        self._cursor_offset = reply["next"]
        self.applied_records += applied
        return applied

    def start(self) -> "Follower":
        """Initial sync + background tail thread."""
        if self.engine is None:
            self.sync()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._tail_loop, name="repro-repl-tail", daemon=True
        )
        self._thread.start()
        return self

    def _tail_loop(self) -> None:
        while not self._stop.is_set():
            try:
                applied = self.poll_once()
            except (ClientError, ReplicationError, OSError) as exc:
                # Primary gone (or mid-restart): remember why, drop the
                # dead socket and keep trying — promotion or a revived
                # primary both resolve this.
                self.last_error = exc
                self._disconnect()
                applied = 0
            if self.promoted:
                return
            if not applied:
                self._stop.wait(self.poll_interval)

    def stop_tailing(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None
        self._disconnect()

    def promote(self) -> ShardEngine:
        """Stop tailing and open the engine for local writes.

        The follower's own WAL and checkpoints already cover every
        applied record, so no recovery work happens here — the engine
        simply stops being read-only at the serving layer.
        """
        with self._lock:
            self.promoted = True
        self.stop_tailing()
        return self.engine

    def close(self) -> None:
        self.stop_tailing()
        if self.engine is not None:
            self.engine.close()
            self.engine = None


class FollowerServer:
    """Serve a follower over TCP: local reads, proxied writes.

    Wraps a :class:`~repro.server.ServerThread` over the follower's
    engine — reads (including pinned views and ``as_of``) run against
    the local snapshot-isolated engine exactly as on a primary.  The
    update-shaped ops (``update``, ``load``, ``unload``,
    ``checkpoint``) are intercepted: until promotion they are
    forwarded to the primary over one lock-guarded client connection
    (the primary's reply, including error codes, passes through
    verbatim); after :meth:`Follower.promote` they execute locally.
    """

    def __init__(self, follower: Follower):
        self.follower = follower
        self._proxy_lock = threading.Lock()
        self._proxy_client: Client | None = None
        self._server_thread = None

    def _forward(self, op: str, params: dict) -> dict:
        with self._proxy_lock:
            host, port = self.follower.primary_addr
            if self._proxy_client is None:
                self._proxy_client = Client(host, port)
            try:
                request_id = self._proxy_client.send(op, **params)
            except ClientError:
                # Only a dead connection fails a send: one reconnect
                # attempt, the primary may have restarted.
                self._proxy_client = Client(host, port)
                request_id = self._proxy_client.send(op, **params)
            try:
                return self._proxy_client.receive(request_id)
            except ClientError as exc:
                if exc.code == "disconnected":
                    # A lost connection stays lost: the next call
                    # opens a new one.
                    self._proxy_client = None
                raise

    def start(self) -> tuple[str, int]:
        if self.follower.engine is None:
            raise ReplicationError(
                "follower has no engine; run Follower.start()/sync() first"
            )
        self._server_thread = ServerThread(
            self.follower.engine, server_cls=_FollowerFacingServer,
            outer=self,
        )
        return self._server_thread.start()

    def stop(self, timeout: float = 60.0) -> None:
        if self._server_thread is not None:
            self._server_thread.stop(timeout=timeout)
            self._server_thread = None
        with self._proxy_lock:
            if self._proxy_client is not None:
                try:
                    self._proxy_client.close()
                except OSError:
                    pass
                self._proxy_client = None


class _FollowerFacingServer(DatabaseServer):
    """A :class:`~repro.server.DatabaseServer` whose update-shaped ops
    go to the primary through ``outer`` until the follower is promoted.

    Module-level on purpose: a class object is a reference cycle of its
    own, so one built per :class:`FollowerServer` with methods closing
    over it would keep it and its follower alive until the cyclic
    collector ran.
    """

    def __init__(self, db, outer: "FollowerServer", **kwargs):
        super().__init__(db, **kwargs)
        self._outer = outer

    async def _proxied(self, op, message):
        """Forward one update-shaped op to the primary; None means
        "run it locally" (follower was promoted)."""
        outer = self._outer
        if outer.follower.promoted:
            return None
        params = {k: v for k, v in message.items() if k not in ("id", "op")}
        try:
            return await self._offload(lambda: outer._forward(op, params))
        except ClientError as exc:
            extra = {}
            if exc.retry_after_ms is not None:
                extra["retry_after_ms"] = exc.retry_after_ms
            raise RequestError(
                exc.code, f"primary: {exc.message}", **extra
            ) from exc
        except (ConnectionError, OSError) as exc:
            raise RequestError(
                "primary_unreachable", f"cannot reach primary: {exc}",
            ) from exc

    async def _op_update(self, session, message):
        proxied = await self._proxied("update", message)
        if proxied is None:
            proxied = await super()._op_update(session, message)
        return proxied

    async def _op_load(self, session, message):
        proxied = await self._proxied("load", message)
        if proxied is None:
            proxied = await super()._op_load(session, message)
        return proxied

    async def _op_unload(self, session, message):
        proxied = await self._proxied("unload", message)
        if proxied is None:
            proxied = await super()._op_unload(session, message)
        return proxied

    async def _op_checkpoint(self, session, message):
        proxied = await self._proxied("checkpoint", message)
        if proxied is None:
            proxied = await super()._op_checkpoint(session, message)
        return proxied

    # Dispatch goes through the class-level table, not method
    # resolution — rebind the intercepted ops.
    _OPS = dict(DatabaseServer._OPS)
    _OPS["update"] = _op_update
    _OPS["load"] = _op_load
    _OPS["unload"] = _op_unload
    _OPS["checkpoint"] = _op_checkpoint
