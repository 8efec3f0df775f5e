"""Length-prefixed JSON wire protocol shared by server and client.

A connection carries a stream of **frames**::

    u32 big-endian body length | body (UTF-8 JSON object)

Requests are objects with an ``id`` (client-chosen, echoed back) and
an ``op``; remaining keys are operation parameters.  Responses echo
the ``id`` and carry ``ok``: on success the payload is under
``result``, on failure ``error`` holds a stable error code plus a
human ``message`` (and op-specific hints such as ``retry_after_ms``
for :data:`E_BUSY`).  Because every response is tagged with its
request id, clients may **pipeline**: send many requests without
waiting, and match responses as they arrive (the server may answer
out of order).

A ``query`` answer is packed columns (:func:`pack_rows`): the
documents and their hit counts as JSON lists, the pres and nids as
base64 of little-endian integer arrays (int32 when every value of the
column fits, else int64) — no per-row JSON, and no document name
repeated per row.

The frame length is capped (:data:`MAX_FRAME_BYTES`) so a corrupt or
hostile peer cannot make the other side buffer unboundedly; an
oversized header is a protocol error and the connection is dropped.

See ``docs/serving.md`` for the full protocol specification.
"""

from __future__ import annotations

import array
import base64
import binascii
import json
import socket
import struct
import sys

import numpy as np

from .xmldb.columns import RowColumns

__all__ = [
    "PROTOCOL_VERSION",
    "FEATURES",
    "MAX_FRAME_BYTES",
    "DEFAULT_CHUNK",
    "WireError",
    "encode_frame",
    "decode_header",
    "read_frame",
    "write_frame",
    "ok_response",
    "error_response",
    "hello_request",
    "check_hello",
    "pack_rows",
    "unpack_rows",
    "E_BAD_REQUEST",
    "E_UNKNOWN_OP",
    "E_BUSY",
    "E_SHUTTING_DOWN",
    "E_NO_VIEW",
    "E_VIEW_INVALID",
    "E_ENGINE",
    "E_INTERNAL",
    "E_UNSUPPORTED_VERSION",
    "E_SHARD_DOWN",
    "E_NO_EPOCH",
    "E_DOC_MOVED",
]

#: Bumped on incompatible protocol changes; exchanged in ``hello``.
#: Version 2: every ``query`` answer is packed columns.
PROTOCOL_VERSION = 2

#: Optional capabilities this protocol version serves.  A client may
#: name the features it needs in its ``hello``; a server that lacks
#: any of them answers ``unsupported_version`` instead of failing in
#: undefined ways mid-session.
FEATURES = ("views", "rows", "scatter", "replication", "as_of", "elastic")

#: Upper bound on one frame's body size (16 MiB).
MAX_FRAME_BYTES = 16 << 20

#: The largest chunk one ``doc.export``/``doc.import``/``repl.fetch``/
#: ``repl.wal`` frame carries: comfortably under
#: :data:`MAX_FRAME_BYTES` after base64 expansion (4/3) plus the JSON
#: envelope.
DEFAULT_CHUNK = 4 << 20

_HEADER = struct.Struct(">I")

#: Element types of the packed ``pres``/``nids`` columns.
_INT32 = np.dtype("<i4")
_INT64 = np.dtype("<i8")
_INT32_LIMIT = 1 << 31
#: Shortest column :func:`pack_rows` packs as int32 when it can: a
#: range check costs about as much as 60 values' worth of int64 bytes.
NARROW_MIN = 64
#: ``array`` type code per element width (``i`` and ``q`` are 4 and 8
#: bytes wherever CPython runs; the table makes that a lookup).
_TYPECODES = {array.array(code).itemsize: code for code in "qi"}

# Stable error codes (the ``error`` field of failure responses).
E_BAD_REQUEST = "bad_request"      # malformed frame/params
E_UNKNOWN_OP = "unknown_op"        # op not in the dispatch table
E_BUSY = "busy"                    # update queue full; retry later
E_SHUTTING_DOWN = "shutting_down"  # server draining; no new work
E_NO_VIEW = "no_view"              # unknown view token
E_VIEW_INVALID = "view_invalid"    # pinned view structurally invalidated
E_ENGINE = "engine"                # engine-level ReproError
E_INTERNAL = "internal"            # unexpected server-side failure
E_UNSUPPORTED_VERSION = "unsupported_version"  # hello version/feature mismatch
E_SHARD_DOWN = "shard_down"        # coordinator: owning shard unreachable
E_NO_EPOCH = "epoch_not_retained"  # as_of epoch outside the retained window
E_DOC_MOVED = "doc_moved"          # placement changed under the request; retry


class WireError(Exception):
    """A framing-level protocol violation (connection must close)."""


def encode_frame(message: dict) -> bytes:
    """One wire frame: 4-byte big-endian length + JSON body."""
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise WireError(f"frame body of {len(body)} bytes exceeds "
                        f"{MAX_FRAME_BYTES}")
    return _HEADER.pack(len(body)) + body


def decode_header(header: bytes) -> int:
    """Body length from a 4-byte frame header (validates the cap)."""
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise WireError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
    return length


def _recv_exact(sock: socket.socket, count: int) -> bytes | None:
    """Read exactly ``count`` bytes; None on a clean mid-message EOF."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> dict | None:
    """Blocking frame read from a socket; None on EOF at a frame
    boundary, :class:`WireError` on a torn or malformed frame."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    length = decode_header(header)
    body = _recv_exact(sock, length)
    if body is None:
        raise WireError("connection closed mid-frame")
    try:
        message = json.loads(body)
    except ValueError as exc:
        raise WireError(f"frame body is not valid JSON: {exc}") from None
    if not isinstance(message, dict):
        raise WireError("frame body must be a JSON object")
    return message


def write_frame(sock: socket.socket, message: dict) -> None:
    sock.sendall(encode_frame(message))


def ok_response(request_id, result: dict) -> dict:
    return {"id": request_id, "ok": True, "result": result}


def error_response(request_id, code: str, message: str, **extra) -> dict:
    response = {"id": request_id, "ok": False, "error": code,
                "message": message}
    response.update(extra)
    return response


def hello_request(features: tuple[str, ...] | list[str] = ()) -> dict:
    """Parameters of a version-checked ``hello`` request."""
    params: dict = {"protocol": PROTOCOL_VERSION}
    if features:
        params["features"] = list(features)
    return params


def check_hello(message: dict) -> str | None:
    """Validate a ``hello`` request against this side's protocol.

    Returns ``None`` when the peer is compatible, else a human-readable
    reason for an :data:`E_UNSUPPORTED_VERSION` rejection.  A ``hello``
    carrying **no** ``protocol`` field is accepted — pre-handshake
    clients never announced one, and the response still advertises the
    server's version so they can check it themselves.
    """
    version = message.get("protocol")
    if version is not None and version != PROTOCOL_VERSION:
        return (f"peer speaks protocol {version!r}, this side speaks "
                f"{PROTOCOL_VERSION}")
    requested = message.get("features") or []
    missing = sorted(set(requested) - set(FEATURES))
    if missing:
        return f"unsupported features requested: {', '.join(missing)}"
    return None


def _pack_ints(values: np.ndarray) -> str:
    # Each value in 4 bytes when every one fits (pres always, and the
    # nids of a single engine), else in 8: half the bytes to encode,
    # escape-scan and decode on each side.  A column shorter than
    # NARROW_MIN stays int64: checking the range would cost more than
    # the bytes it saves.  The reader tells the width from the
    # column's length and the row count.
    narrow = values.size >= NARROW_MIN and bool(
        np.minimum.reduce(values) >= -_INT32_LIMIT
        and np.maximum.reduce(values) < _INT32_LIMIT)
    return base64.b64encode(np.ascontiguousarray(
        values, _INT32 if narrow else _INT64)).decode("ascii")


def _unpack_ints(text: str, rows: int) -> array.array:
    # array.array, not numpy: the client only turns the column into
    # Python ints, and numpy's per-call overhead shows on small answers.
    raw = binascii.a2b_base64(text)
    width, spare = divmod(len(raw), rows) if rows else (4, len(raw))
    typecode = _TYPECODES.get(width)
    if spare or typecode is None:
        raise WireError(f"a column of {len(raw)} bytes cannot hold "
                        f"{rows} int32 or int64 values")
    values = array.array(typecode, raw)
    if sys.byteorder == "big":
        values.byteswap()
    return values


def pack_rows(columns: RowColumns) -> dict:
    """A ``query`` result: ``{"documents": [name, ...], "counts": [n,
    ...], "pres": b64(<i4 or <i8), "nids": b64(<i4 or <i8)}``."""
    return {
        "documents": columns.documents,
        "counts": columns.counts,
        "pres": _pack_ints(columns.pres),
        "nids": _pack_ints(columns.nids),
    }


def unpack_rows(result: dict) -> RowColumns:
    """Inverse of :func:`pack_rows`; :class:`WireError` on a result
    that is not one (missing keys, bad base64, columns whose lengths
    disagree with the counts)."""
    try:
        documents, counts = result["documents"], result["counts"]
        rows = sum(counts)
        pres = _unpack_ints(result["pres"], rows)
        nids = _unpack_ints(result["nids"], rows)
    except (KeyError, TypeError, ValueError) as exc:
        # binascii.Error (bad base64) is a ValueError.
        raise WireError(f"malformed query result: {exc}") from None
    if (type(documents) is not list or type(counts) is not list
            or len(documents) != len(counts)
            or not all(type(count) is int and count >= 0
                       for count in counts)):
        raise WireError(
            f"query result lists {len(documents)} documents and "
            f"{len(counts)} counts, not one count (an int >= 0) "
            "per document")
    return RowColumns(documents, counts, pres, nids)
