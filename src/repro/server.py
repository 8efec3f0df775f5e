"""Asyncio network front-end over the engine.

:class:`DatabaseServer` multiplexes many client connections onto one
:class:`~repro.database.Database` (every database serves concurrently
and group-commits; no flag is needed):

* **Reads** (``query`` / ``lookup`` / ``explain``) are dispatched to a
  bounded thread pool; each request runs inside its own snapshot-
  pinned :class:`~repro.core.concurrency.ReadView`.  A session may
  additionally *pin* a view (``view.open``): the server registers a
  long-lived :class:`~repro.core.concurrency.SessionPin` — which keeps
  the epoch's MVCC overlay versions alive without holding the latch —
  and subsequent requests carrying the view token resolve at that
  epoch.  Structural updates invalidate session views; the affected
  requests fail with ``view_invalid`` instead of serving torn data.
* **Updates** are funneled through the group-commit leader by a
  separate writer pool behind a **bounded admission queue**: when
  ``max_pending_updates`` updates are already in flight the request is
  rejected immediately with ``busy`` and a ``retry_after_ms`` hint —
  backpressure surfaces at the edge instead of as unbounded latency.
* **Graceful drain** (SIGTERM/SIGINT, or :meth:`drain`): stop
  accepting connections, reject new requests, let in-flight requests
  finish, then flush the group-commit queue, checkpoint and close the
  WAL (``Database.close``).  Every update acknowledged over the wire
  is durable across the restart.

Wire protocol: length-prefixed JSON frames (:mod:`repro.wire`);
responses are tagged with the request id, so clients may pipeline.
``docs/serving.md`` is the protocol and lifecycle spec;
``repro.bench.serve`` measures the sustained-traffic claims.
"""

from __future__ import annotations

import asyncio
import base64
import json
import signal
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from typing import Any, Awaitable, Callable

from . import wire
from .core.concurrency import EpochNotRetained, active_view
from .database import Database
from .errors import ReproError
from .wire import (
    E_BAD_REQUEST,
    E_BUSY,
    E_DOC_MOVED,
    E_ENGINE,
    E_INTERNAL,
    E_NO_EPOCH,
    E_NO_VIEW,
    E_SHUTTING_DOWN,
    E_UNKNOWN_OP,
    E_UNSUPPORTED_VERSION,
    E_VIEW_INVALID,
    PROTOCOL_VERSION,
)

__all__ = ["DatabaseServer", "RequestError", "ServerThread", "serve"]

#: Default hint returned with ``busy`` rejections.
RETRY_AFTER_MS = 25.0


class RequestError(Exception):
    """An error the server reports to the client and keeps serving."""

    def __init__(self, code: str, message: str, **extra):
        super().__init__(message)
        self.code = code
        self.message = message
        self.extra = extra


class _Session:
    """Per-connection state: id, pinned views, write serialization,
    and in-progress chunked document transfers (shard migration)."""

    __slots__ = ("session_id", "pins", "next_view", "write_lock",
                 "exports", "imports")

    def __init__(self, session_id: int):
        self.session_id = session_id
        self.pins: dict[int, Any] = {}
        self.next_view = 1
        self.write_lock = asyncio.Lock()
        #: document name -> full export payload (chunk-served, dropped
        #: once the last chunk is read or the connection closes).
        self.exports: dict[str, bytes] = {}
        #: document name -> accumulating import payload.
        self.imports: dict[str, bytearray] = {}


class DatabaseServer:
    """Serve one :class:`Database` over TCP.

    Args:
        db: An open database.
        host/port: Bind address (port 0 picks an ephemeral port;
            :attr:`port` holds the bound one after :meth:`start`).
        max_pending_updates: Admission-control bound on in-flight
            updates; beyond it requests fail fast with ``busy``.
        read_workers/write_workers: Thread-pool sizes for read and
            update execution.
        placement_version: The cluster layout version this shard was
            (re)started under, or ``None`` when serving stand-alone.
            Scatter requests stamped with an older version are
            rejected with retryable ``doc_moved`` instead of being
            answered from the wrong side of a migration; the
            coordinator advances it with the ``placement`` op after
            each manifest flip (docs/sharding.md).
    """

    def __init__(
        self,
        db: Database,
        host: str = "127.0.0.1",
        port: int = 0,
        max_pending_updates: int = 64,
        read_workers: int = 8,
        write_workers: int = 8,
        placement_version: int | None = None,
    ):
        self.db = db
        self.host = host
        self.port = port
        self._controller = db.manager.concurrency
        self._metrics = db.manager.metrics
        self._max_pending_updates = max_pending_updates
        self._read_pool = ThreadPoolExecutor(
            max_workers=read_workers, thread_name_prefix="serve-read"
        )
        self._write_pool = ThreadPoolExecutor(
            max_workers=write_workers, thread_name_prefix="serve-write"
        )
        self._pending_updates = 0
        self.placement_version = placement_version
        self._state = "new"  # new -> serving -> draining -> closed
        self._server: asyncio.base_events.Server | None = None
        self._sessions: set[_Session] = set()
        self._inflight: set[asyncio.Task] = set()
        self._conn_writers: set[asyncio.StreamWriter] = set()
        self._next_session = 1
        #: Exception raised while closing the database during drain
        #: (e.g. a poisoned group-commit log re-raising its crash);
        #: the WAL handle is released regardless.
        self.close_error: BaseException | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._state = "serving"

    async def serve_until(self, stop: asyncio.Event) -> None:
        """Serve until ``stop`` is set, then drain gracefully."""
        if self._state == "new":
            await self.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError, ValueError):
                # Non-main thread or platform without signal support:
                # stop is driven programmatically instead.
                break
        await stop.wait()
        await self.drain()

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, finish in-flight work,
        flush group commit, checkpoint, close the WAL.

        A database whose group-commit log was poisoned by an injected
        crash raises out of ``close``; the exception is recorded on
        :attr:`close_error` (the WAL and the sockets are released
        either way, and the un-truncated WAL replays on next open).
        """
        if self._state in ("draining", "closed"):
            return
        self._state = "draining"
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._inflight:
            await asyncio.gather(*tuple(self._inflight),
                                 return_exceptions=True)
        # Hang up on idle peers (replication followers tail over
        # long-lived connections); their handler loops then exit at a
        # clean frame boundary instead of being cancelled mid-read
        # when the event loop shuts down.
        for conn_writer in tuple(self._conn_writers):
            conn_writer.close()
        loop = asyncio.get_running_loop()
        try:
            await loop.run_in_executor(self._write_pool, self._close_db)
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            self.close_error = exc
        for session in tuple(self._sessions):
            self._release_session(session)
        self._read_pool.shutdown(wait=False)
        self._write_pool.shutdown(wait=False)
        self._state = "closed"

    def _close_db(self) -> None:
        self.db.close(checkpoint=True)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        session = _Session(self._next_session)
        self._next_session += 1
        self._sessions.add(session)
        self._conn_writers.add(writer)
        self._metrics.counter("server.connections").inc()
        try:
            while True:
                header = await reader.readexactly(4)
                length = wire.decode_header(header)
                body = await reader.readexactly(length)
                try:
                    message = json.loads(body)
                    if not isinstance(message, dict):
                        raise ValueError("frame body must be an object")
                except ValueError:
                    break  # framing violation: drop the connection
                task = asyncio.ensure_future(
                    self._serve_request(session, writer, message)
                )
                self._inflight.add(task)
                task.add_done_callback(self._inflight.discard)
        except (asyncio.IncompleteReadError, ConnectionError, wire.WireError):
            pass
        finally:
            self._release_session(session)
            self._sessions.discard(session)
            self._conn_writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _release_session(self, session: _Session) -> None:
        for pin in session.pins.values():
            self._controller.close_pin(pin)
        session.pins.clear()

    async def _serve_request(
        self,
        session: _Session,
        writer: asyncio.StreamWriter,
        message: dict,
    ) -> None:
        request_id = message.get("id")
        self._metrics.counter("server.requests").inc()
        try:
            op = message.get("op")
            handler = self._OPS.get(op)
            if handler is None:
                raise RequestError(E_UNKNOWN_OP, f"unknown op {op!r}")
            if self._state != "serving" and op not in ("ping", "hello"):
                raise RequestError(E_SHUTTING_DOWN, "server is draining")
            result = await handler(self, session, message)
            response = wire.ok_response(request_id, result)
        except RequestError as exc:
            self._metrics.counter(f"server.errors.{exc.code}").inc()
            response = wire.error_response(
                request_id, exc.code, exc.message, **exc.extra
            )
        except EpochNotRetained as exc:
            self._metrics.counter(f"server.errors.{E_NO_EPOCH}").inc()
            response = wire.error_response(request_id, E_NO_EPOCH, str(exc))
        except ReproError as exc:
            self._metrics.counter("server.errors.engine").inc()
            response = wire.error_response(request_id, E_ENGINE, str(exc))
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            # Includes InjectedCrash/poison surfacing through an
            # update: the client sees a failure, never a false ack.
            self._metrics.counter("server.errors.internal").inc()
            response = wire.error_response(
                request_id, E_INTERNAL, f"{type(exc).__name__}: {exc}"
            )
        try:
            frame = wire.encode_frame(response)
        except wire.WireError as exc:
            # An answer over the frame cap fails its request: the
            # client must not wait out its timeout for a lost response.
            self._metrics.counter(f"server.errors.{E_INTERNAL}").inc()
            frame = wire.encode_frame(
                wire.error_response(request_id, E_INTERNAL, str(exc))
            )
        try:
            async with session.write_lock:
                writer.write(frame)
                await writer.drain()
        except (ConnectionError, OSError):
            pass

    # ------------------------------------------------------------------
    # Request execution helpers
    # ------------------------------------------------------------------

    async def _run_read(self, session: _Session, message: dict, fn):
        """Run ``fn`` on the read pool, inside the request's view."""
        view_id = message.get("view")
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._read_pool, self._read_in_view, session, view_id, fn
        )

    def _read_in_view(self, session: _Session, view_id, fn):
        if view_id is None:
            return fn()
        pin = session.pins.get(view_id)
        if pin is None:
            raise RequestError(E_NO_VIEW, f"unknown view {view_id!r}")
        with self._controller.read_view_at(pin):
            # Checked under the shared latch: no structural writer can
            # invalidate the pin between this check and the reads.
            if not self._controller.pin_valid(pin):
                raise RequestError(
                    E_VIEW_INVALID,
                    "pinned view invalidated by a structural update; "
                    "close it and open a new one",
                )
            return fn()

    async def _run_update(self, fn):
        """Run an update on the writer pool behind admission control."""
        if self._pending_updates >= self._max_pending_updates:
            self._metrics.counter("server.busy_rejections").inc()
            raise RequestError(
                E_BUSY,
                f"update queue full ({self._max_pending_updates} in "
                "flight); retry later",
                retry_after_ms=RETRY_AFTER_MS,
            )
        self._pending_updates += 1
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(self._write_pool, fn)
        finally:
            self._pending_updates -= 1

    @staticmethod
    def _require(message: dict, key: str):
        if key not in message:
            raise RequestError(E_BAD_REQUEST, f"missing parameter {key!r}")
        return message[key]

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    async def _op_hello(self, session, message) -> dict:
        reason = wire.check_hello(message)
        if reason is not None:
            raise RequestError(
                E_UNSUPPORTED_VERSION, reason,
                protocol=PROTOCOL_VERSION, features=list(wire.FEATURES),
            )
        return {
            "server": "repro-xml",
            "protocol": PROTOCOL_VERSION,
            "features": list(wire.FEATURES),
            "session": session.session_id,
            "epoch": self._controller.published().epoch,
            "shard": self.db.shard_id,
            "documents": sorted(self.db.store.documents),
            "placement": self.placement_version,
        }

    async def _op_ping(self, session, message) -> dict:
        return {}

    def _check_placement(self, message: dict) -> None:
        """Reject a scatter request routed under a stale cluster layout.

        The coordinator stamps scatter requests with the manifest
        version its routing decision used; when this shard has since
        been told about a newer layout (``placement`` op after a
        migration flip) the request is answered with retryable
        ``doc_moved`` — the caller re-routes against the current
        manifest.  Requests pinned to a session view skip the gate:
        a pinned view deliberately keeps answering from the placement
        it captured (the source copy is only unloaded once no view
        pins it — docs/sharding.md).
        """
        stamped = message.get("placement")
        if stamped is None or message.get("view") is not None:
            return
        current = self.placement_version
        if current is None or stamped > current:
            # The coordinator planned under a layout newer than this
            # shard has been told about (it missed the broadcast —
            # restart race, or a coordinator that died right after
            # flipping): adopt it, versions only ever grow.
            self.placement_version = stamped
            return
        if stamped < current:
            raise RequestError(
                E_DOC_MOVED,
                f"request routed under placement version {stamped}, "
                f"shard now at {current}; re-route and retry",
                placement=current,
            )

    def _rows_of(self, text: str, document, documents: list | None,
                 use_indexes, as_of):
        """``query_rows`` over the store view.  With ``documents`` (a
        coordinator scatter) the same pinned view also checks that
        every listed document is here — else ``doc_moved`` — and keeps
        only their rows.  A document mid-migration exists on *two*
        shards and the coordinator's placement snapshot names the one
        that answers for it, so a shard must never answer for a
        document it merely happens to hold (double count), nor
        silently skip one it no longer holds (dropped rows)."""
        if documents is None:
            return self.db.query_rows(text, document, use_indexes,
                                      as_of=as_of)
        pin = (self._controller.read_view() if active_view() is None
               else nullcontext())
        with pin:
            held = self.db.store.documents
            for name in documents:
                if name not in held:
                    raise RequestError(
                        E_DOC_MOVED,
                        f"document {name!r} is not on this shard; "
                        "re-route and retry",
                        document=name,
                        placement=self.placement_version,
                    )
            rows = self.db.query_rows(text, None, use_indexes, as_of=as_of)
            listed = set(documents)
            if len(listed) < len(held):
                rows = [row for row in rows if row[0] in listed]
            return rows

    async def _op_query(self, session, message) -> dict:
        text = self._require(message, "xpath")
        document = message.get("document")
        documents = message.get("documents")
        use_indexes = message.get("use_indexes", True)
        as_of = message.get("as_of")
        if use_indexes not in (True, False, "auto"):
            raise RequestError(
                E_BAD_REQUEST, "use_indexes must be true, false or 'auto'"
            )
        if as_of is not None and not isinstance(as_of, int):
            raise RequestError(E_BAD_REQUEST, "as_of must be an epoch int")
        if documents is not None and not isinstance(documents, list):
            raise RequestError(E_BAD_REQUEST, "documents must be a list")
        self._check_placement(message)
        if message.get("rows") or documents is not None:
            # Scatter-gather shape: (document, pre, nid) rows — pre
            # addresses survive re-placement, bare nids don't.  The
            # engine maps rows at the same pinned epoch it evaluates.
            rows = await self._run_read(
                session, message,
                lambda: self._rows_of(text, document, documents,
                                      use_indexes, as_of),
            )
            return {"rows": [list(row) for row in rows]}
        nids = await self._run_read(
            session, message,
            lambda: self.db.query(text, document, use_indexes,
                                  as_of=as_of),
        )
        return {"nids": nids}

    async def _op_lookup(self, session, message) -> dict:
        mode = self._require(message, "mode")

        def call():
            if mode == "string":
                return list(self.db.lookup_string(
                    self._require(message, "value")))
            if mode == "typed_equal":
                return list(self.db.lookup_typed_equal(
                    message.get("type", "double"),
                    self._require(message, "value")))
            if mode == "typed_range":
                pairs = self.db.lookup_typed_range(
                    message.get("type", "double"),
                    message.get("low"), message.get("high"),
                    include_low=message.get("include_low", True),
                    include_high=message.get("include_high", True),
                )
                return [nid for _value, nid in pairs]
            if mode == "contains":
                return list(self.db.lookup_contains(
                    self._require(message, "value")))
            if mode == "regex":
                return list(self.db.lookup_regex(
                    self._require(message, "value")))
            raise RequestError(E_BAD_REQUEST, f"unknown lookup mode {mode!r}")

        nids = await self._run_read(session, message, call)
        return {"nids": nids}

    async def _op_explain(self, session, message) -> dict:
        text = self._require(message, "xpath")
        execute = bool(message.get("execute", False))

        def call():
            explanation = self.db.explain(text, execute=execute)
            return {"summary": str(explanation), "tree": explanation.tree()}

        return await self._run_read(session, message, call)

    async def _op_update(self, session, message) -> dict:
        action = self._require(message, "action")
        db = self.db
        if action == "update_text":
            nid = self._require(message, "nid")
            text = self._require(message, "text")

            def call():
                return {"recomputed": db.update_text(nid, text)}
        elif action == "insert_xml":
            nid = self._require(message, "nid")
            fragment = self._require(message, "fragment")
            before = message.get("before")

            def call():
                change = db.insert_xml(nid, fragment, before)
                return {"added": len(change.added_nids)}
        elif action == "delete_subtree":
            nid = self._require(message, "nid")

            def call():
                return {"removed": len(db.delete_subtree(nid).removed_nids)}
        elif action == "insert_attribute":
            nid = self._require(message, "nid")
            name = self._require(message, "name")
            value = self._require(message, "value")

            def call():
                change = db.insert_attribute(nid, name, value)
                return {"added": len(change.added_nids)}
        elif action == "delete_attribute":
            nid = self._require(message, "nid")

            def call():
                return {"removed": len(db.delete_attribute(nid).removed_nids)}
        elif action == "rename":
            nid = self._require(message, "nid")
            name = self._require(message, "name")

            def call():
                db.rename(nid, name)
                return {}
        else:
            raise RequestError(
                E_BAD_REQUEST, f"unknown update action {action!r}"
            )
        return await self._run_update(call)

    async def _op_load(self, session, message) -> dict:
        """Shred + index one document (a checkpoint-forcing bulk
        write — runs on the writer pool behind admission control)."""
        name = self._require(message, "name")
        xml = self._require(message, "xml")

        def call():
            doc = self.db.load(name, xml)
            return {"nodes": len(doc.nid)}

        return await self._run_update(call)

    async def _op_unload(self, session, message) -> dict:
        name = self._require(message, "name")

        def call():
            self.db.unload(name)
            return {}

        return await self._run_update(call)

    async def _op_view_open(self, session, message) -> dict:
        pin = self._controller.open_pin()
        view_id = session.next_view
        session.next_view += 1
        session.pins[view_id] = pin
        return {"view": view_id, "epoch": pin.epoch}

    async def _op_view_close(self, session, message) -> dict:
        view_id = self._require(message, "view")
        pin = session.pins.pop(view_id, None)
        if pin is None:
            raise RequestError(E_NO_VIEW, f"unknown view {view_id!r}")
        self._controller.close_pin(pin)
        return {}

    async def _op_metrics(self, session, message) -> dict:
        return {"metrics": self.db.metrics()}

    async def _op_checkpoint(self, session, message) -> dict:
        await self._run_update(self.db.checkpoint)
        return {"epoch": self.db.checkpoint_epoch}

    async def _op_epochs(self, session, message) -> dict:
        """The retained time-travel window (docs/replication.md)."""
        return {
            "epochs": self.db.retained_epochs(),
            "current": self._controller.published().epoch,
        }

    # -- elasticity (shard migration; see docs/sharding.md) --------------

    async def _op_placement(self, session, message) -> dict:
        """Advance this shard's cluster layout version (manifest flip).

        Monotonic: a late-arriving older stamp never rolls the shard
        back behind a flip it has already been told about.
        """
        version = int(self._require(message, "version"))
        previous = self.placement_version
        if previous is None or version > previous:
            self.placement_version = version
        return {"placement": self.placement_version, "previous": previous}

    async def _op_doc_export(self, session, message) -> dict:
        """Chunked read of one document's snapshot encoding.

        ``offset == 0`` captures (and caches on the session) a fresh
        consistent export; later offsets serve from that capture, so
        one transfer never mixes two states of the document.  The
        cache entry drops with the final chunk.
        """
        from .repl.primary import DEFAULT_CHUNK

        name = self._require(message, "name")
        offset = int(message.get("offset", 0))
        # Capped like ``repl.fetch``: a larger chunk outgrows the frame
        # cap once base64-encoded.
        length = min(int(message.get("length", DEFAULT_CHUNK)), DEFAULT_CHUNK)
        if offset < 0 or length <= 0:
            raise RequestError(E_BAD_REQUEST, "bad offset/length")

        def call():
            if offset == 0:
                if name not in self.db.store.documents:
                    raise RequestError(
                        E_DOC_MOVED,
                        f"document {name!r} is not on this shard",
                        document=name,
                        placement=self.placement_version,
                    )
                session.exports[name] = self.db.export_document(name)
            payload = session.exports.get(name)
            if payload is None:
                raise RequestError(
                    E_BAD_REQUEST,
                    f"no export in progress for {name!r} "
                    "(chunks must start at offset 0)",
                )
            chunk = payload[offset:offset + length]
            eof = offset + len(chunk) >= len(payload)
            if eof:
                session.exports.pop(name, None)
            return {
                "data": base64.b64encode(chunk).decode("ascii"),
                "eof": eof,
                "size": len(payload),
            }

        return await self._run_read(session, message, call)

    async def _op_doc_import(self, session, message) -> dict:
        """Chunked write of a document exported from another shard.

        Chunks accumulate on the session; the ``eof`` chunk adopts the
        document (foreign nids remapped, indexes rebuilt, checkpoint)
        on the writer pool like any other bulk write.
        """
        name = self._require(message, "name")
        data = base64.b64decode(self._require(message, "data"))
        offset = int(message.get("offset", 0))
        buffer = session.imports.setdefault(name, bytearray())
        if offset != len(buffer):
            session.imports.pop(name, None)
            raise RequestError(
                E_BAD_REQUEST,
                f"import chunk at offset {offset}, expected {len(buffer)}",
            )
        buffer.extend(data)
        if not message.get("eof"):
            return {"received": len(buffer)}
        payload = bytes(session.imports.pop(name))

        def call():
            doc = self.db.import_document(name, payload)
            return {"received": len(payload), "nodes": len(doc.nid)}

        return await self._run_update(call)

    async def _op_doc_stats(self, session, message) -> dict:
        """Per-document placement metrics (rebalance weights)."""
        return await self._run_read(
            session, message, lambda: {"documents": self.db.document_stats()}
        )

    # -- replication (primary side; see repro.repl.primary) -------------

    async def _op_repl_manifest(self, session, message) -> dict:
        from .repl import primary as repl_primary

        return await self._run_read(
            session, message, lambda: repl_primary.manifest_info(self.db)
        )

    async def _op_repl_fetch(self, session, message) -> dict:
        from .repl import primary as repl_primary

        name = self._require(message, "name")
        offset = int(message.get("offset", 0))
        length = int(message.get("length", repl_primary.DEFAULT_CHUNK))

        def call():
            try:
                return repl_primary.fetch_chunk(self.db, name, offset,
                                                length)
            except (ValueError, FileNotFoundError) as exc:
                raise RequestError(E_BAD_REQUEST, str(exc)) from exc

        return await self._run_read(session, message, call)

    async def _op_repl_wal(self, session, message) -> dict:
        from .repl import primary as repl_primary

        epoch = int(self._require(message, "epoch"))
        offset = int(self._require(message, "offset"))
        max_bytes = int(
            message.get("max_bytes", repl_primary.DEFAULT_CHUNK)
        )
        return await self._run_read(
            session, message,
            lambda: repl_primary.wal_chunk(self.db, epoch, offset,
                                           max_bytes),
        )

    _OPS: dict[str, Callable[..., Awaitable[dict]]] = {
        "hello": _op_hello,
        "ping": _op_ping,
        "query": _op_query,
        "lookup": _op_lookup,
        "explain": _op_explain,
        "update": _op_update,
        "load": _op_load,
        "unload": _op_unload,
        "view.open": _op_view_open,
        "view.close": _op_view_close,
        "metrics": _op_metrics,
        "checkpoint": _op_checkpoint,
        "epochs": _op_epochs,
        "placement": _op_placement,
        "doc.export": _op_doc_export,
        "doc.import": _op_doc_import,
        "doc.stats": _op_doc_stats,
        "repl.manifest": _op_repl_manifest,
        "repl.fetch": _op_repl_fetch,
        "repl.wal": _op_repl_wal,
    }


class ServerThread:
    """Run a :class:`DatabaseServer` on a background thread.

    Test/bench support: owns a private event loop on a daemon thread,
    exposes the bound address after :meth:`start`, and :meth:`stop`
    triggers the graceful drain from any thread.  ``server_cls``
    swaps in a :class:`DatabaseServer` subclass (the replication
    follower proxies update ops through one).
    """

    def __init__(self, db: Database, server_cls=None, **kwargs):
        self.server = (server_cls or DatabaseServer)(db, **kwargs)
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread = threading.Thread(
            target=self._main, name="repro-serve", daemon=True
        )
        self.error: BaseException | None = None

    def start(self) -> tuple[str, int]:
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("server thread failed to start")
        if self.error is not None:
            raise RuntimeError(f"server failed to start: {self.error!r}")
        return self.server.host, self.server.port

    def _main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # pragma: no cover - defensive
            self.error = exc
        finally:
            self._ready.set()

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            await self.server.start()
        finally:
            self._ready.set()
        await self.server.serve_until(self._stop)

    def stop(self, timeout: float = 60.0) -> None:
        """Trigger the graceful drain and wait for the thread."""
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already closed
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            raise RuntimeError("server thread did not drain in time")


async def serve(db: Database, host: str, port: int, **kwargs) -> None:
    """CLI entry: serve until SIGTERM/SIGINT, then drain."""
    server = DatabaseServer(db, host=host, port=port, **kwargs)
    await server.start()
    print(f"serving {db.path!r} on {server.host}:{server.port} "
          f"(protocol v{PROTOCOL_VERSION}; SIGTERM drains)")
    await server.serve_until(asyncio.Event())
    if server.close_error is not None:
        raise server.close_error
