"""The blocking client for the :mod:`repro.server` wire protocol.

:class:`Client` sends length-prefixed JSON frames (:mod:`repro.wire`;
byte payloads ride each frame's raw tail) over one socket, one
request at a time, or pipelined: several requests go out with
:meth:`Client.send` and their answers come back by id through
:meth:`Client.receive`.

Failures come back as :class:`ClientError` carrying the server's
stable error code (``busy``, ``view_invalid``, ...); ``busy``
rejections include the server's ``retry_after_ms`` hint, which
:meth:`Client.update_text`'s optional retry loop honours.  A
:class:`Client` whose connection failed (a read timed out part-way
through a frame, the peer closed, a torn frame) closes it: that call
and every later one raise ``ClientError("disconnected")``, since the
stream is no longer at a frame boundary.

``query`` answers arrive as packed columns (:func:`repro.wire.unpack_rows`);
``(document, pre, nid)`` tuples are built only by ``query_rows``.
Chunked transfers (:meth:`Client.download`,
:meth:`Client.import_document`) move ``bytes`` under the ``data`` key,
which :func:`repro.wire.encode_frame` ships in the tail.
"""

from __future__ import annotations

import socket
import time
from typing import Any

from . import wire
from .errors import ReproError
from .xmldb.columns import RowColumns

__all__ = ["Client", "ClientError"]


class ClientError(ReproError):
    """A server-reported failure (the response's error code/message)."""

    def __init__(self, code: str, message: str, response: dict):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
        self.response = response

    @property
    def retry_after_ms(self) -> float | None:
        value = self.response.get("retry_after_ms")
        return float(value) if value is not None else None


def _unwrap(response: dict) -> dict:
    if response.get("ok"):
        return response.get("result", {})
    raise ClientError(
        response.get("error", "unknown"),
        response.get("message", ""),
        response,
    )


class Client:
    """Blocking client: one socket, explicit request/response calls."""

    def __init__(self, host: str, port: int, timeout: float = 60.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._next_id = 1
        self._pending: dict[int, dict] = {}
        #: Why the connection was dropped, once it has been.
        self._lost: str | None = None

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- pipelined primitives -------------------------------------------

    def _disconnected(self, reason: str | None = None) -> ClientError:
        """Drop the connection (once) and the error every call on it
        raises from now on."""
        if self._lost is None:
            self._lost = reason
            self.close()
        return ClientError("disconnected", self._lost, {})

    def send(self, op: str, **params: Any) -> int:
        """Fire one request without waiting; returns its id."""
        if self._lost is not None:
            raise self._disconnected()
        request_id = self._next_id
        self._next_id += 1
        message = {"id": request_id, "op": op}
        message.update(params)
        frame = wire.encode_frame(message)
        try:
            self._sock.sendall(frame)
        except OSError as exc:
            # Part of the frame may be out: the stream is torn.
            raise self._disconnected(f"send failed: {exc}") from exc
        return request_id

    def receive(self, request_id: int) -> dict:
        """The response for ``request_id`` (drains out-of-order ones)."""
        while request_id not in self._pending:
            if self._lost is not None:
                raise self._disconnected()
            try:
                response = wire.read_frame(self._sock)
            except (OSError, wire.WireError) as exc:
                # A timeout may strike mid-frame: what follows on the
                # socket is no longer a frame header.
                raise self._disconnected(
                    f"connection lost: {type(exc).__name__}: {exc}"
                ) from exc
            if response is None:
                raise self._disconnected("server closed the connection")
            self._pending[response.get("id")] = response
        return _unwrap(self._pending.pop(request_id))

    def call(self, op: str, **params: Any) -> dict:
        return self.receive(self.send(op, **params))

    # -- convenience API -------------------------------------------------

    def hello(self) -> dict:
        return self.call("hello")

    def handshake(self, features: tuple[str, ...] | list[str] = ()) -> dict:
        """Version-checked ``hello``: announce our protocol version and
        the ``features`` we require.  An incompatible server answers
        with the stable ``unsupported_version`` code (surfaced as a
        :class:`ClientError`); a *newer* server that still accepted us
        is rejected client-side the same way."""
        result = self.call("hello", **wire.hello_request(features))
        if result.get("protocol") != wire.PROTOCOL_VERSION:
            raise ClientError(
                wire.E_UNSUPPORTED_VERSION,
                f"server speaks protocol {result.get('protocol')!r}, "
                f"client speaks {wire.PROTOCOL_VERSION}",
                {"result": result},
            )
        return result

    def ping(self) -> dict:
        return self.call("ping")

    def _query(self, xpath: str, document: str | None,
               use_indexes: bool | str, view: int | None,
               as_of: int | None) -> RowColumns:
        params: dict[str, Any] = {"xpath": xpath, "use_indexes": use_indexes}
        if document is not None:
            params["document"] = document
        if view is not None:
            params["view"] = view
        if as_of is not None:
            params["as_of"] = as_of
        return wire.unpack_rows(self.call("query", **params))

    def query(self, xpath: str, document: str | None = None,
              use_indexes: bool | str = True,
              view: int | None = None,
              as_of: int | None = None) -> list[int]:
        """Matching node ids in document order (like
        :meth:`Database.query <repro.shard.engine.ShardEngine.query>`)."""
        return self._query(xpath, document, use_indexes, view,
                           as_of).nids.tolist()

    def query_rows(self, xpath: str, document: str | None = None,
                   use_indexes: bool | str = True,
                   view: int | None = None,
                   as_of: int | None = None) -> list[tuple[str, int, int]]:
        """Query returning ``(document, pre, nid)`` tuples, equal to
        :meth:`Database.query_rows
        <repro.shard.engine.ShardEngine.query_rows>` on the server (the
        placement-independent shape the shard coordinator merges)."""
        return self._query(xpath, document, use_indexes, view,
                           as_of).rows()

    def epochs(self) -> dict:
        """The server's retained time-travel window: ``epochs`` (oldest
        first) and ``current`` (docs/replication.md)."""
        return self.call("epochs")

    def lookup(self, mode: str, **params: Any) -> list[int]:
        return self.call("lookup", mode=mode, **params)["nids"]

    def explain(self, xpath: str, execute: bool = False) -> dict:
        return self.call("explain", xpath=xpath, execute=execute)

    def update_text(self, nid: int, text: str,
                    busy_retries: int = 0) -> dict:
        """Update one text node; optionally retry ``busy`` rejections
        after the server's ``retry_after_ms`` hint."""
        attempts = 0
        while True:
            try:
                return self.call("update", action="update_text",
                                 nid=nid, text=text)
            except ClientError as exc:
                if exc.code != wire.E_BUSY or attempts >= busy_retries:
                    raise
                attempts += 1
                time.sleep((exc.retry_after_ms or 25.0) / 1000.0)

    def insert_xml(self, nid: int, fragment: str,
                   before: int | None = None) -> dict:
        params: dict[str, Any] = {"action": "insert_xml", "nid": nid,
                                  "fragment": fragment}
        if before is not None:
            params["before"] = before
        return self.call("update", **params)

    def delete_subtree(self, nid: int) -> dict:
        return self.call("update", action="delete_subtree", nid=nid)

    def open_view(self) -> dict:
        """Pin a session view; returns ``{"view": token, "epoch": E}``."""
        return self.call("view.open")

    def close_view(self, view: int) -> dict:
        return self.call("view.close", view=view)

    def metrics(self) -> dict:
        return self.call("metrics")["metrics"]

    def checkpoint(self) -> dict:
        return self.call("checkpoint")

    # -- elasticity (shard migration; docs/sharding.md) ------------------

    def document_stats(self) -> dict:
        """Per-document ``{nodes, bytes}`` stats (rebalance inputs)."""
        return self.call("doc.stats")["documents"]

    def download(self, op: str, **params: Any) -> bytes:
        """Read a chunked payload (``doc.export``, ``repl.fetch``) from
        offset 0 to ``eof``; the server sizes each chunk
        (:data:`repro.wire.DEFAULT_CHUNK`)."""
        payload = bytearray()
        while True:
            result = self.call(op, offset=len(payload), **params)
            payload.extend(result["data"])
            if result["eof"]:
                return bytes(payload)

    def export_document(self, name: str) -> bytes:
        """Fetch one document's snapshot encoding in chunks."""
        return self.download("doc.export", name=name)

    def import_document(self, name: str, payload: bytes) -> dict:
        """Ship a document's snapshot encoding in chunks; the final
        (``eof``) chunk adopts and indexes it on the receiving shard."""
        offset = 0
        result: dict = {}
        while True:
            chunk = payload[offset:offset + wire.DEFAULT_CHUNK]
            eof = offset + len(chunk) >= len(payload)
            result = self.call("doc.import", name=name, offset=offset,
                               data=chunk, eof=eof)
            offset += len(chunk)
            if eof:
                return result

