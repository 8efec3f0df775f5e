"""Asyncio network front-end over the engine.

:class:`DatabaseServer` multiplexes many client connections onto one
:class:`~repro.database.Database` (every database serves concurrently
and group-commits; no flag is needed):

* **Reads** (``query`` / ``lookup`` / ``explain``) run on the event
  loop itself, each inside its own snapshot-pinned
  :class:`~repro.core.concurrency.ReadView`: under the GIL a thread
  pool would add two thread hand-offs to every read and no
  parallelism.  A session may additionally *pin* a view
  (``view.open``): the server registers a long-lived
  :class:`~repro.core.concurrency.SessionPin` — which keeps the
  epoch's MVCC overlay versions alive without holding the latch — and
  subsequent requests carrying the view token resolve at that epoch.
  Structural updates invalidate session views; the affected requests
  fail with ``view_invalid`` instead of serving torn data.  A read
  holds the loop while it runs, and one that waits on the shared
  latch behind a structural writer, a checkpoint or a document export
  holds it until the latch is free.
* **Updates** and the ops that move bytes to or from disk or wait on
  the exclusive latch (``doc.export``, ``doc.stats``,
  ``repl.manifest``/``fetch``/``wal``) run on one pool of
  :data:`WORKERS` threads (:meth:`DatabaseServer._offload`).  Updates
  are funneled through the group-commit leader behind a **bounded
  admission queue**: when ``max_pending_updates`` updates are already
  in flight the request is rejected immediately with ``busy`` and a
  ``retry_after_ms`` hint — backpressure surfaces at the edge instead
  of as unbounded latency.
* **Graceful drain** (SIGTERM/SIGINT, or :meth:`drain`): stop
  accepting connections, reject new requests, let in-flight requests
  finish, then flush the group-commit queue, checkpoint and close the
  WAL (``Database.close``).  Every update acknowledged over the wire
  is durable across the restart.

Wire protocol: length-prefixed JSON frames whose byte payloads ride
a raw tail (:mod:`repro.wire`); responses are tagged with the request
id, so clients may pipeline (:class:`~repro.client.Client` is the one
client).  ``docs/serving.md``
is the protocol and lifecycle spec.
"""

from __future__ import annotations

import asyncio
import signal
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from typing import Any, Awaitable, Callable

from . import wire
from .core.concurrency import EpochNotRetained, active_view
from .database import Database
from .errors import DocumentError, ReproError
from .wire import (
    E_BAD_REQUEST,
    E_BUSY,
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
from .xmldb.columns import RowColumns

__all__ = ["DatabaseServer", "RequestError", "ServerThread", "serve"]

#: Default hint returned with ``busy`` rejections.
RETRY_AFTER_MS = 25.0

#: Threads that run updates (feeding the group-commit leader behind
#: the admission bound), exports and replication transfers.
WORKERS = 8


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
    """

    def __init__(
        self,
        db: Database,
        host: str = "127.0.0.1",
        port: int = 0,
        max_pending_updates: int = 64,
    ):
        self.db = db
        self.host = host
        self.port = port
        self._controller = db.manager.concurrency
        self._metrics = db.manager.metrics
        self._max_pending_updates = max_pending_updates
        self._pool = ThreadPoolExecutor(
            max_workers=WORKERS, thread_name_prefix="serve-worker"
        )
        self._pending_updates = 0
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
            # The asyncio server keeps its protocol factory, which
            # holds ``self._handle_connection``: drop it so a stopped
            # server is freed by refcount, not the cyclic collector.
            self._server = None
        if self._inflight:
            await asyncio.gather(*tuple(self._inflight),
                                 return_exceptions=True)
        # Hang up on idle peers (replication followers tail over
        # long-lived connections); their handler loops then exit at a
        # clean frame boundary instead of being cancelled mid-read
        # when the event loop shuts down.
        for conn_writer in tuple(self._conn_writers):
            conn_writer.close()
        try:
            await self._offload(self._close_db)
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            self.close_error = exc
        for session in tuple(self._sessions):
            self._release_session(session)
        self._pool.shutdown(wait=False)
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
                decoder = wire.decode_frame(await reader.readexactly(4))
                try:
                    need = next(decoder)
                    while True:
                        need = decoder.send(await reader.readexactly(need))
                except StopIteration as done:
                    message = done.value
                task = asyncio.ensure_future(
                    self._serve_request(session, writer, message)
                )
                self._inflight.add(task)
                task.add_done_callback(self._inflight.discard)
        except (asyncio.IncompleteReadError, ConnectionError, wire.WireError):
            pass  # EOF or a framing violation: drop the connection
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

    def _run_read(self, session: _Session, message: dict, fn):
        """Run ``fn`` on the event loop, inside the request's view."""
        view_id = message.get("view")
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

    async def _offload(self, fn):
        """Run blocking ``fn`` on the worker pool, off the event loop."""
        return await asyncio.get_running_loop().run_in_executor(
            self._pool, fn)

    async def _run_update(self, fn):
        """Run an update on the worker pool behind admission control."""
        if self._pending_updates >= self._max_pending_updates:
            self._metrics.counter("server.busy_rejections").inc()
            raise RequestError(
                E_BUSY,
                f"update queue full ({self._max_pending_updates} in "
                "flight); retry later",
                retry_after_ms=RETRY_AFTER_MS,
            )
        self._pending_updates += 1
        try:
            return await self._offload(fn)
        finally:
            self._pending_updates -= 1

    @staticmethod
    def _require(message: dict, key: str):
        if key not in message:
            raise RequestError(E_BAD_REQUEST, f"missing parameter {key!r}")
        return message[key]

    @classmethod
    def _int_param(cls, message: dict, key: str,
                   default: int | None = None) -> int:
        """An integer parameter, ``default`` when absent (required
        when there is none); anything else is ``bad_request``."""
        value = (cls._require(message, key) if default is None
                 else message.get(key, default))
        if type(value) is not int:
            raise RequestError(E_BAD_REQUEST,
                               f"parameter {key!r} must be an integer")
        return value

    @classmethod
    def _chunk_params(cls, message: dict, length_key: str,
                      offset_default: int | None = 0) -> tuple[int, int]:
        """``offset`` and the chunk length under ``length_key``,
        capped at :data:`repro.wire.DEFAULT_CHUNK`; ``bad_request``
        unless ``offset >= 0`` and the length is positive."""
        offset = cls._int_param(message, "offset", offset_default)
        length = cls._int_param(message, length_key, wire.DEFAULT_CHUNK)
        if offset < 0 or length <= 0:
            raise RequestError(E_BAD_REQUEST, f"bad offset/{length_key}")
        return offset, min(length, wire.DEFAULT_CHUNK)

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
        }

    async def _op_ping(self, session, message) -> dict:
        return {}

    def _columns_of(self, text: str, document, documents: list | None,
                    use_indexes, as_of) -> RowColumns:
        """``query_columns`` over the store view.  With ``documents`` (a
        coordinator scatter) the same pinned view also checks that
        every listed document is here and keeps only their segments.
        A document mid-migration exists on *two* shards and the
        coordinator's plan names the one that answers for it, so a
        shard must never answer for a document it merely happens to
        hold (double count), nor silently skip one it does not hold
        (dropped rows): the coordinator keeps every copy a live plan
        names, so a missing one is an engine error."""
        if documents is None:
            return self.db.query_columns(text, document, use_indexes,
                                         as_of=as_of)
        pin = (self._controller.read_view() if active_view() is None
               else nullcontext())
        with pin:
            held = self.db.store.documents
            for name in documents:
                if name not in held:
                    raise DocumentError(
                        f"document {name!r} is not on this shard")
            columns = self.db.query_columns(text, None, use_indexes,
                                            as_of=as_of)
            listed = set(documents)
            if len(listed) < len(held):
                columns = RowColumns.join(
                    (name, *segment)
                    for name, segment in columns.split().items()
                    if name in listed)
            return columns

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
        # (document, pre) addresses survive re-placement, bare nids
        # don't: every answer carries both, as packed columns.
        return self._run_read(
            session, message,
            lambda: wire.pack_rows(self._columns_of(
                text, document, documents, use_indexes, as_of)),
        )

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

        nids = self._run_read(session, message, call)
        return {"nids": nids}

    async def _op_explain(self, session, message) -> dict:
        text = self._require(message, "xpath")
        execute = bool(message.get("execute", False))

        def call():
            explanation = self.db.explain(text, execute=execute)
            return {"summary": str(explanation), "tree": explanation.tree()}

        return self._run_read(session, message, call)

    async def _op_update(self, session, message) -> dict:
        action = self._require(message, "action")
        nid = self._int_param(message, "nid")
        db = self.db
        if action == "update_text":
            text = self._require(message, "text")

            def call():
                return {"recomputed": db.update_text(nid, text)}
        elif action == "insert_xml":
            fragment = self._require(message, "fragment")
            before = (None if message.get("before") is None
                      else self._int_param(message, "before"))

            def call():
                change = db.insert_xml(nid, fragment, before)
                return {"added": len(change.added_nids)}
        elif action == "delete_subtree":
            def call():
                return {"removed": len(db.delete_subtree(nid).removed_nids)}
        elif action == "insert_attribute":
            name = self._require(message, "name")
            value = self._require(message, "value")

            def call():
                change = db.insert_attribute(nid, name, value)
                return {"added": len(change.added_nids)}
        elif action == "delete_attribute":
            def call():
                return {"removed": len(db.delete_attribute(nid).removed_nids)}
        elif action == "rename":
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
        write — runs on the worker pool behind admission control)."""
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

    async def _op_doc_export(self, session, message) -> dict:
        """Chunked read of one document's snapshot encoding.

        ``offset == 0`` captures (and caches on the session) a fresh
        consistent export; later offsets serve from that capture, so
        one transfer never mixes two states of the document.  The
        cache entry drops with the final chunk.
        """
        name = self._require(message, "name")
        offset, length = self._chunk_params(message, "length")

        def call():
            if offset == 0:
                if name not in self.db.store.documents:
                    raise DocumentError(
                        f"document {name!r} is not on this shard")
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
            return {"data": chunk, "eof": eof, "size": len(payload)}

        return await self._offload(call)

    async def _op_doc_import(self, session, message) -> dict:
        """Chunked write of a document exported from another shard.

        Chunks accumulate on the session; the ``eof`` chunk adopts the
        document (foreign nids remapped, indexes rebuilt, checkpoint)
        on the worker pool like any other bulk write.
        """
        name = self._require(message, "name")
        data = self._require(message, "data")
        if not isinstance(data, bytes):
            raise RequestError(E_BAD_REQUEST,
                               "data must be a span into the frame tail")
        offset = self._int_param(message, "offset", 0)
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
        return await self._offload(
            lambda: {"documents": self.db.document_stats()})

    # -- replication (primary side; see repro.repl.primary) -------------

    async def _op_repl_manifest(self, session, message) -> dict:
        from .repl import primary as repl_primary

        return await self._offload(
            lambda: repl_primary.manifest_info(self.db))

    async def _op_repl_fetch(self, session, message) -> dict:
        from .repl import primary as repl_primary

        name = self._require(message, "name")
        offset, length = self._chunk_params(message, "length")

        def call():
            try:
                return repl_primary.fetch_chunk(self.db, name, offset,
                                                length)
            except (ValueError, FileNotFoundError) as exc:
                raise RequestError(E_BAD_REQUEST, str(exc)) from exc

        return await self._offload(call)

    async def _op_repl_wal(self, session, message) -> dict:
        from .repl import primary as repl_primary

        epoch = self._int_param(message, "epoch")
        offset, max_bytes = self._chunk_params(message, "max_bytes", None)
        return await self._offload(
            lambda: repl_primary.wal_chunk(self.db, epoch, offset,
                                           max_bytes))

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


async def serve(db: Database, host: str, port: int,
                max_pending_updates: int = 64) -> None:
    """Serve until SIGTERM/SIGINT, then drain.

    Once bound, prints one line, ``serving PATH on HOST:PORT (...)``;
    a parent process that started the server on port 0 reads its
    address from it.
    """
    server = DatabaseServer(db, host=host, port=port,
                            max_pending_updates=max_pending_updates)
    await server.start()
    print(f"serving {db.path!r} on {server.host}:{server.port} "
          f"(protocol v{PROTOCOL_VERSION}; SIGTERM drains)", flush=True)
    await server.serve_until(asyncio.Event())
    if server.close_error is not None:
        raise server.close_error
