"""Framing-layer tests: length-prefixed JSON frames with a raw byte
tail, and a client that loses its place in the frame stream."""

import json
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro import wire
from repro.client import Client, ClientError

from .conftest import ByteStream


def _pair():
    return socket.socketpair()


class TestEncodeDecode:
    def test_roundtrip_over_socketpair(self):
        left, right = _pair()
        try:
            message = {"id": 7, "op": "query", "xpath": "//p", "nested": [1, 2]}
            wire.write_frame(left, message)
            assert wire.read_frame(right) == message
        finally:
            left.close()
            right.close()

    def test_many_frames_preserve_order(self):
        left, right = _pair()
        try:
            for i in range(10):
                wire.write_frame(left, {"id": i})
            for i in range(10):
                assert wire.read_frame(right) == {"id": i}
        finally:
            left.close()
            right.close()

    def test_header_is_big_endian_u32(self):
        frame = wire.encode_frame({"a": 1})
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4

    def test_message_without_bytes_is_length_prefixed_json(self):
        """No payload, no tail key, no tail: a list under a span key
        (a ``lookup`` answer's ``nids``) is JSON like any other."""
        message = {"id": 3, "ok": True,
                   "result": {"counts": [1, 2], "nids": [4, 5]}}
        body = json.dumps(message, separators=(",", ":")).encode("utf-8")
        assert wire.encode_frame(message) == struct.pack(">I", len(body)) \
            + body
        assert wire.read_frame(ByteStream(wire.encode_frame(message))) \
            == message

    def test_payloads_ride_the_tail_raw(self):
        """Spans at the top level and in ``result`` point into one raw
        tail; the reader hands back ``bytes``, and the sender's message
        is left as it was."""
        data = bytes(range(256)) * 3
        request = {"id": 1, "op": "doc.import", "data": data}
        frame = wire.encode_frame(request)
        assert frame.endswith(data)
        assert wire.read_frame(ByteStream(frame)) == request

        pres = np.arange(5, dtype=np.int64)
        nids = pres + 2**62
        response = wire.ok_response(2, {"pres": pres, "data": b"",
                                        "nids": nids})
        frame = wire.encode_frame(response)
        (length,) = struct.unpack(">I", frame[:4])
        head = json.loads(frame[4:4 + length])
        assert head["result"] == {"pres": [0, 40], "nids": [40, 40],
                                  "data": [80, 0]}
        assert head[wire.TAIL] == len(frame) - 4 - length == 80
        back = wire.read_frame(ByteStream(frame))
        assert back["result"] == {"pres": pres.tobytes(), "data": b"",
                                  "nids": nids.tobytes()}
        assert wire.TAIL not in back
        assert response["result"]["pres"] is pres

    def test_unicode_payload(self):
        left, right = _pair()
        try:
            message = {"id": 1, "text": "héllo ☃"}
            wire.write_frame(left, message)
            assert wire.read_frame(right) == message
        finally:
            left.close()
            right.close()


def _raw_frame(head: dict, tail: bytes = b"") -> bytes:
    body = json.dumps(head).encode("utf-8")
    return struct.pack(">I", len(body)) + body + tail


class TestLimits:
    def test_oversized_body_refused_on_encode(self):
        huge = {"blob": "x" * (wire.MAX_FRAME_BYTES + 1)}
        with pytest.raises(wire.WireError, match="exceeds"):
            wire.encode_frame(huge)

    def test_oversized_header_refused_on_decode(self):
        header = struct.pack(">I", wire.MAX_FRAME_BYTES + 1)
        with pytest.raises(wire.WireError, match="exceeds"):
            wire.decode_header(header)

    def test_json_plus_tail_over_the_cap(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 256)
        fits = {"id": 1, "data": bytes(200)}
        assert wire.read_frame(ByteStream(wire.encode_frame(fits))) == fits
        with pytest.raises(wire.WireError, match="exceeds"):
            wire.encode_frame({"id": 1, "data": bytes(250)})
        # The reader refuses before it reads the tail.
        with pytest.raises(wire.WireError, match="exceeds"):
            wire.read_frame(ByteStream(_raw_frame(
                {"id": 1, "data": [0, 250], "tail": 250})))

    @pytest.mark.parametrize("head", [
        {"id": 1, "data": [2, 4], "tail": 4},
        {"id": 1, "data": [4, 1], "tail": 4},
        {"id": 1, "data": [-1, 2], "tail": 4},
        {"id": 1, "data": [0, -1], "tail": 4},
        {"id": 1, "ok": True, "result": {"pres": [0, 8]}, "tail": 4},
        {"id": 1, "data": "AAAA", "tail": 4},
        {"id": 1, "data": [0, 1.5], "tail": 4},
        {"id": 1, "data": [0, 4], "tail": -4},
    ])
    def test_span_outside_the_tail_raises(self, head):
        with pytest.raises(wire.WireError):
            wire.read_frame(ByteStream(_raw_frame(head, b"abcd")))


class TestDegenerateStreams:
    def test_clean_eof_returns_none(self):
        left, right = _pair()
        left.close()
        try:
            assert wire.read_frame(right) is None
        finally:
            right.close()

    def test_eof_mid_header_returns_none(self):
        left, right = _pair()
        try:
            left.sendall(b"\x00\x00")  # half a header, then EOF
            left.close()
            assert wire.read_frame(right) is None
        finally:
            right.close()

    def test_torn_frame_raises(self):
        left, right = _pair()
        try:
            frame = wire.encode_frame({"id": 1, "op": "ping"})
            left.sendall(frame[:-3])  # header + truncated body
            left.close()
            with pytest.raises(wire.WireError, match="mid-frame"):
                wire.read_frame(right)
        finally:
            right.close()

    def test_frame_torn_inside_its_tail_raises(self):
        frame = wire.encode_frame({"id": 1, "data": bytes(64)})
        with pytest.raises(wire.WireError, match="mid-frame"):
            wire.read_frame(ByteStream(frame[:-3]))

    def test_server_drops_a_frame_with_a_span_outside_its_tail(self,
                                                                served):
        with socket.create_connection((served.host, served.port)) as raw:
            raw.settimeout(10)
            raw.sendall(_raw_frame({"id": 1, "op": "doc.import",
                                    "name": "n", "data": [0, 9],
                                    "tail": 4}, b"abcd"))
            assert raw.recv(1024) == b""  # dropped, no answer
        with Client(served.host, served.port) as client:
            assert client.ping() == {}

    def test_invalid_json_raises(self):
        left, right = _pair()
        try:
            body = b"{nope"
            left.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(wire.WireError, match="JSON"):
                wire.read_frame(right)
        finally:
            left.close()
            right.close()

    def test_non_object_body_raises(self):
        left, right = _pair()
        try:
            body = b"[1,2,3]"
            left.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(wire.WireError, match="object"):
                wire.read_frame(right)
        finally:
            left.close()
            right.close()


class TestResponseShapes:
    def test_ok_response(self):
        assert wire.ok_response(4, {"nids": []}) == {
            "id": 4, "ok": True, "result": {"nids": []},
        }

    def test_error_response_with_extra(self):
        response = wire.error_response(
            9, wire.E_BUSY, "full", retry_after_ms=25.0
        )
        assert response["ok"] is False
        assert response["error"] == "busy"
        assert response["retry_after_ms"] == 25.0


def _half_frame_server(listener: socket.socket, stall: float,
                       seen: dict, result: dict, cut: int) -> None:
    """Answer one request with ``result``'s frame cut at ``cut``, stall,
    then send the rest and a second, complete frame; record whether
    the client hung up rather than sending another request."""
    conn, _addr = listener.accept()
    with conn:
        request = wire.read_frame(conn)
        first = wire.encode_frame(wire.ok_response(request["id"], result))
        second = wire.encode_frame(wire.ok_response(request["id"] + 1, {}))
        try:
            conn.sendall(first[:cut])
            time.sleep(stall)
            conn.sendall(first[cut:] + second)
            conn.settimeout(5)
            seen["after"] = conn.recv(1024)
        except OSError as exc:
            seen["after"] = exc


class TestTornRead:
    def test_timeout_mid_frame_drops_the_connection(self):
        result = {"pad": "x" * 64}
        half = len(wire.encode_frame(wire.ok_response(1, result))) // 2
        self.check_torn_read(result, half)

    def test_timeout_inside_the_tail_drops_the_connection(self):
        result = {"data": bytes(64)}
        frame = wire.encode_frame(wire.ok_response(1, result))
        self.check_torn_read(result, len(frame) - 32)

    @staticmethod
    def check_torn_read(result: dict, cut: int) -> None:
        listener = socket.create_server(("127.0.0.1", 0))
        host, port = listener.getsockname()[:2]
        seen: dict = {}
        server = threading.Thread(target=_half_frame_server,
                                  args=(listener, 0.6, seen, result, cut),
                                  daemon=True)
        server.start()
        try:
            client = Client(host, port, timeout=0.2)
            with pytest.raises(ClientError) as first:
                client.ping()
            assert first.value.code == "disconnected"
            time.sleep(0.6)  # the rest of the frame has arrived by now
            for _ in range(2):
                with pytest.raises(ClientError) as later:
                    client.ping()
                assert later.value.code == "disconnected"
            client.close()
        finally:
            server.join(timeout=10)
            listener.close()
        assert not server.is_alive()
        # The client closed its socket at the first failure: the server
        # reads end-of-stream (or a reset), never a second request.
        after = seen["after"]
        assert after == b"" or isinstance(after, ConnectionError)
