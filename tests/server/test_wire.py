"""Framing-layer tests: length-prefixed JSON frames, and a client that
loses its place in the frame stream."""

import socket
import struct
import threading
import time

import pytest

from repro import wire
from repro.client import Client, ClientError


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

    def test_unicode_payload(self):
        left, right = _pair()
        try:
            message = {"id": 1, "text": "héllo ☃"}
            wire.write_frame(left, message)
            assert wire.read_frame(right) == message
        finally:
            left.close()
            right.close()


class TestLimits:
    def test_oversized_body_refused_on_encode(self):
        huge = {"blob": "x" * (wire.MAX_FRAME_BYTES + 1)}
        with pytest.raises(wire.WireError, match="exceeds"):
            wire.encode_frame(huge)

    def test_oversized_header_refused_on_decode(self):
        header = struct.pack(">I", wire.MAX_FRAME_BYTES + 1)
        with pytest.raises(wire.WireError, match="exceeds"):
            wire.decode_header(header)


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
                       seen: dict) -> None:
    """Answer one request with a frame cut in half, stall, then send
    the rest and a second, complete frame; record whether the client
    hung up rather than sending another request."""
    conn, _addr = listener.accept()
    with conn:
        request = wire.read_frame(conn)
        first = wire.encode_frame(wire.ok_response(
            request["id"], {"pad": "x" * 64}))
        second = wire.encode_frame(wire.ok_response(request["id"] + 1, {}))
        try:
            conn.sendall(first[:len(first) // 2])
            time.sleep(stall)
            conn.sendall(first[len(first) // 2:] + second)
            conn.settimeout(5)
            seen["after"] = conn.recv(1024)
        except OSError as exc:
            seen["after"] = exc


class TestTornRead:
    def test_timeout_mid_frame_drops_the_connection(self):
        listener = socket.create_server(("127.0.0.1", 0))
        host, port = listener.getsockname()[:2]
        seen: dict = {}
        server = threading.Thread(target=_half_frame_server,
                                  args=(listener, 0.6, seen), daemon=True)
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
