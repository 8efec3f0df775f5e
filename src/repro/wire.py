"""The wire protocol shared by server and client: framed JSON with a
raw byte tail.

A connection carries a stream of **frames**::

    u32 big-endian JSON length | JSON object | tail

The tail holds the message's byte payloads, raw and back to back.  Its
length sits under the one reserved top-level key :data:`TAIL`.  Where
a frame has a tail, the values under the span keys (:data:`SPAN_KEYS`:
``pres``, ``nids``, ``data``) at the top level and in ``result`` are
``[offset, length]`` spans into it; the reader finds a span by its
key, never by its shape (``counts`` is a list of ints too).  A message
that holds no bytes has no tail key and no tail, so its frame is the
length-prefixed JSON alone.  :func:`encode_frame` and
:func:`decode_frame` are the only code that turns payload bytes into a
frame and back: a sender puts ``bytes`` (or a numpy array) under a
span key, and the receiver finds ``bytes`` there.  No payload is
encoded twice.

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
little-endian int64 arrays in the tail — no per-row JSON, and no
document name repeated per row.

JSON plus tail is capped (:data:`MAX_FRAME_BYTES`) so a corrupt or
hostile peer cannot make the other side buffer unboundedly; a frame
over the cap, or a span outside its tail, is a protocol error and the
connection is dropped.

See ``docs/serving.md`` for the full protocol specification.
"""

from __future__ import annotations

import array
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
    "TAIL",
    "SPAN_KEYS",
    "WireError",
    "encode_frame",
    "decode_header",
    "decode_frame",
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
#: Version 2: every ``query`` answer is packed columns.  Version 3:
#: every byte payload rides the frame tail.
PROTOCOL_VERSION = 3

#: Optional capabilities this protocol version serves.  A client may
#: name the features it needs in its ``hello``; a server that lacks
#: any of them answers ``unsupported_version`` instead of failing in
#: undefined ways mid-session.
FEATURES = ("views", "rows", "scatter", "replication", "as_of", "elastic")

#: Upper bound on one frame's JSON plus tail (16 MiB).
MAX_FRAME_BYTES = 16 << 20

#: The largest chunk one ``doc.export``/``doc.import``/``repl.fetch``/
#: ``repl.wal`` frame carries: raw in the tail, a quarter of
#: :data:`MAX_FRAME_BYTES`.
DEFAULT_CHUNK = 4 << 20

#: The reserved top-level key that holds the tail's length.
TAIL = "tail"

#: Keys whose values are byte payloads: spans into the tail on the
#: wire, ``bytes`` on either side of it.
SPAN_KEYS = ("pres", "nids", "data")

_HEADER = struct.Struct(">I")
#: ``json.dumps(..., separators=(",", ":"))`` without building an
#: encoder per frame.
_JSON = json.JSONEncoder(separators=(",", ":"))

#: The types :func:`encode_frame` moves into the tail.
_PAYLOADS = frozenset((bytes, bytearray, memoryview, np.ndarray))

#: Element type of the packed ``pres``/``nids`` columns.
_INT64 = np.dtype("<i8")

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


def _cut(scope: dict, tail: list, size: int) -> tuple[dict, int]:
    """``scope`` with each payload under a span key appended to
    ``tail`` (``size`` bytes so far) and replaced by its span; a copy
    if anything moved.  Returns it and the tail's new size."""
    out = scope
    for key in SPAN_KEYS:
        value = scope.get(key)
        if type(value) in _PAYLOADS:
            length = memoryview(value).nbytes
            if out is scope:
                out = dict(scope)
            out[key] = [size, length]
            tail.append(value)
            size += length
    return out, size


def encode_frame(message: dict) -> bytes:
    """One wire frame: u32 JSON length + JSON + tail.  Every payload
    under a span key, at the top level or in ``result``, moves raw
    into the tail and leaves its span behind (``message`` itself is
    not changed)."""
    tail: list = []
    out, size = _cut(message, tail, 0)
    result = message.get("result")
    if type(result) is dict:
        spanned, size = _cut(result, tail, size)
        if spanned is not result:
            out = {**out, "result": spanned}
    if tail:
        out[TAIL] = size  # a copy: _cut() copied whatever held a payload
    body = _JSON.encode(out).encode("utf-8")
    if len(body) + size > MAX_FRAME_BYTES:
        raise WireError(f"frame of {len(body)} JSON and {size} tail bytes "
                        f"exceeds {MAX_FRAME_BYTES}")
    return b"".join((_HEADER.pack(len(body)), body, *tail))


def decode_header(header: bytes) -> int:
    """JSON length from a 4-byte frame header (validates the cap)."""
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise WireError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
    return length


def _resolve_spans(scope: dict, tail: bytes) -> None:
    for key in SPAN_KEYS:
        span = scope.get(key)
        if span is None:
            continue
        try:
            offset, length = span
            if offset >= 0 and length >= 0 and offset + length <= len(tail):
                scope[key] = tail[offset:offset + length]
                continue
        except (TypeError, ValueError):
            pass  # not a pair of numbers, or not ints to slice with
        raise WireError(f"{key!r} is {span!r}, not a span inside a "
                        f"{len(tail)}-byte tail")


def decode_frame(header: bytes):
    """The one frame decoder, as a generator its reader drives.

    Given a frame's 4-byte header, it yields how many bytes it needs
    next and is sent exactly those; it returns the message with every
    span resolved to the ``bytes`` it names.  :class:`WireError` on a
    frame over :data:`MAX_FRAME_BYTES`, a body that is not a JSON
    object, or a span outside the tail.
    """
    length = decode_header(header)
    body = yield length
    try:
        message = json.loads(body)
    except ValueError as exc:
        raise WireError(f"frame body is not valid JSON: {exc}") from None
    if not isinstance(message, dict):
        raise WireError("frame body must be a JSON object")
    size = message.pop(TAIL, None)
    if size is None:
        return message
    if type(size) is not int or size < 0 or length + size > MAX_FRAME_BYTES:
        raise WireError(f"frame of {length} JSON and {size!r} tail bytes "
                        f"exceeds {MAX_FRAME_BYTES}")
    tail = yield size
    _resolve_spans(message, tail)
    result = message.get("result")
    if type(result) is dict:
        _resolve_spans(result, tail)
    return message


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
    decoder = decode_frame(header)
    try:
        need = next(decoder)
        while True:
            data = _recv_exact(sock, need)
            if data is None:
                raise WireError("connection closed mid-frame")
            need = decoder.send(data)
    except StopIteration as done:
        return done.value


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


def pack_rows(columns: RowColumns) -> dict:
    """A ``query`` result: ``{"documents": [name, ...], "counts": [n,
    ...], "pres": <i8, "nids": <i8}``; the two columns ride the frame
    tail."""
    return {
        "documents": columns.documents,
        "counts": columns.counts,
        "pres": np.ascontiguousarray(columns.pres, _INT64),
        "nids": np.ascontiguousarray(columns.nids, _INT64),
    }


def _unpack_ints(raw, rows: int) -> array.array:
    # array.array, not numpy: the client only turns the column into
    # Python ints, and numpy's per-call overhead shows on small answers.
    raw = memoryview(raw).cast("B")
    if len(raw) != 8 * rows:
        raise WireError(f"a column of {len(raw)} bytes cannot hold "
                        f"{rows} int64 values")
    values = array.array("q")
    values.frombytes(raw)
    if sys.byteorder == "big":
        values.byteswap()
    return values


def unpack_rows(result: dict) -> RowColumns:
    """Inverse of :func:`pack_rows`; :class:`WireError` on a result
    that is not one (missing keys, columns that are not bytes or whose
    lengths disagree with the counts)."""
    try:
        documents, counts = result["documents"], result["counts"]
        rows = sum(counts)
        pres = _unpack_ints(result["pres"], rows)
        nids = _unpack_ints(result["nids"], rows)
    except (KeyError, TypeError, ValueError) as exc:
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
