"""Integration tests for the server's request operations.

Each test drives a live :class:`~repro.server.ServerThread` over real
sockets with the blocking :class:`~repro.client.Client`.
"""

import json
import socket
import struct
import time

import numpy as np
import pytest

from repro import wire
from repro.client import Client, ClientError
from repro.xmldb.columns import RowColumns

from ..concurrent.harness import classified_text_nids, fixture_xml


class TestHandshake:
    def test_hello_reports_protocol_and_documents(self, served):
        with Client(served.host, served.port) as client:
            hello = client.hello()
        assert hello["protocol"] == wire.PROTOCOL_VERSION
        assert hello["documents"] == ["people"]
        assert hello["session"] >= 1

    def test_ping(self, served):
        with Client(served.host, served.port) as client:
            assert client.ping() == {}

    def test_sessions_get_distinct_ids(self, served):
        with Client(served.host, served.port) as first:
            with Client(served.host, served.port) as second:
                assert (first.hello()["session"]
                        != second.hello()["session"])


class TestQueries:
    def test_query_matches_in_process_result(self, served):
        with Client(served.host, served.port) as client:
            over_wire = client.query("//p[.//age = 7]")
        assert over_wire == served.db.query("//p[.//age = 7]")
        assert over_wire  # fixture guarantees hits

    def test_indexed_and_naive_agree_over_wire(self, served):
        with Client(served.host, served.port) as client:
            indexed = client.query("//p[.//age >= 20]", use_indexes=True)
            naive = client.query("//p[.//age >= 20]", use_indexes=False)
        assert indexed == naive

    def test_update_visibility(self, served):
        ages, _names = classified_text_nids(served.doc)
        with Client(served.host, served.port) as client:
            before = client.query("//p[.//age = 97]")
            assert before == []
            ack = client.update_text(ages[0], "97")
            assert ack["recomputed"] >= 1
            after = client.query("//p[.//age = 97]")
        assert len(after) == 1

    def test_lookup_modes(self, served):
        with Client(served.host, served.port) as client:
            strings = client.lookup("string", value="n3")
            typed = client.lookup("typed_range", low=5, high=7)
            contains = client.lookup("contains", value="n1")
        assert sorted(strings) == sorted(served.db.lookup_string("n3"))
        in_process = [
            nid for _v, nid in served.db.lookup_typed_range("double", 5, 7)
        ]
        assert sorted(typed) == sorted(in_process)
        assert contains

    def test_explain(self, served):
        with Client(served.host, served.port) as client:
            explanation = client.explain("//p[.//age = 7]")
        assert "summary" in explanation and "tree" in explanation

    def test_metrics_include_server_counters(self, served):
        with Client(served.host, served.port) as client:
            client.ping()
            metrics = client.metrics()
        assert metrics["counters"]["server.requests"] >= 2
        assert metrics["counters"]["server.connections"] >= 1

    def test_pipelined_requests_share_one_connection(self, served):
        with Client(served.host, served.port) as client:
            ids = [client.send("query", xpath="//p[.//age = %d]" % k)
                   for k in range(5)]
            # Collect in reverse: responses are matched by id, not order.
            results = {rid: client.receive(rid) for rid in reversed(ids)}
        for k, rid in enumerate(ids):
            assert wire.unpack_rows(results[rid]).nids.tolist() \
                == served.db.query("//p[.//age = %d]" % k)


class TestPinnedViews:
    def test_pinned_view_is_stable_across_updates(self, served):
        ages, _ = classified_text_nids(served.doc)
        with Client(served.host, served.port) as client:
            view = client.open_view()["view"]
            pinned_before = client.query("//p[.//age = 3]", view=view)
            client.update_text(ages[3], "96")  # age 3 -> 96
            live = client.query("//p[.//age = 3]", view=None)
            pinned_after = client.query("//p[.//age = 3]", view=view)
            client.close_view(view)
        # The live view lost a hit; the pinned view did not move.
        assert pinned_after == pinned_before
        assert len(live) == len(pinned_before) - 1

    def test_structural_update_invalidates_view(self, served):
        root_nid = served.doc.nid[served.doc.root_element()]
        with Client(served.host, served.port) as client:
            view = client.open_view()["view"]
            client.insert_xml(
                root_nid, "<p><name>nx</name><age>40</age></p>"
            )
            with pytest.raises(ClientError) as err:
                client.query("//p[.//age = 7]", view=view)
        assert err.value.code == wire.E_VIEW_INVALID

    def test_checkpoint_does_not_invalidate_view(self, served):
        with Client(served.host, served.port) as client:
            view = client.open_view()["view"]
            client.checkpoint()
            nids = client.query("//p[.//age = 7]", view=view)
        assert nids == served.db.query("//p[.//age = 7]")

    def test_closed_view_is_unknown(self, served):
        with Client(served.host, served.port) as client:
            view = client.open_view()["view"]
            client.close_view(view)
            with pytest.raises(ClientError) as err:
                client.query("//p", view=view)
        assert err.value.code == wire.E_NO_VIEW

    def test_disconnect_releases_session_pins(self, served):
        controller = served.db.manager.concurrency
        client = Client(served.host, served.port)
        client.open_view()
        assert controller._pins
        client.close()
        deadline = time.time() + 10
        while controller._pins and time.time() < deadline:
            time.sleep(0.01)
        assert not controller._pins, "session pin leaked after disconnect"


class TestErrors:
    def test_unknown_op(self, served):
        with Client(served.host, served.port) as client:
            with pytest.raises(ClientError) as err:
                client.call("frobnicate")
        assert err.value.code == wire.E_UNKNOWN_OP

    def test_missing_parameter(self, served):
        with Client(served.host, served.port) as client:
            with pytest.raises(ClientError) as err:
                client.call("query")  # no xpath
        assert err.value.code == wire.E_BAD_REQUEST

    def test_bad_use_indexes(self, served):
        with Client(served.host, served.port) as client:
            with pytest.raises(ClientError) as err:
                client.call("query", xpath="//p", use_indexes="maybe")
        assert err.value.code == wire.E_BAD_REQUEST

    def test_engine_error_is_reported_not_fatal(self, served):
        with Client(served.host, served.port) as client:
            with pytest.raises(ClientError) as err:
                client.query("//p[")  # parse error -> ReproError
            assert err.value.code == wire.E_ENGINE
            assert client.ping() == {}  # connection survives

    def test_unknown_update_action(self, served):
        with Client(served.host, served.port) as client:
            with pytest.raises(ClientError) as err:
                client.call("update", action="shred")
        assert err.value.code == wire.E_BAD_REQUEST

    @pytest.mark.parametrize("op, params", [
        ("doc.export", {"name": "people", "offset": "x"}),
        ("doc.export", {"name": "people", "length": 2.5}),
        ("doc.import", {"name": "n", "offset": "x", "data": b"",
                        "eof": False}),
        ("doc.import", {"name": "n", "data": "AAAA", "eof": True}),
        ("repl.fetch", {"name": "MANIFEST.json", "offset": -5}),
        ("repl.fetch", {"name": "MANIFEST.json", "offset": "x"}),
        ("repl.fetch", {"name": "MANIFEST.json", "length": 0}),
        ("repl.wal", {"epoch": "live", "offset": -5}),
        ("repl.wal", {"epoch": "live", "offset": "x"}),
        ("repl.wal", {"epoch": "x", "offset": 16}),
        ("placement", {"version": "x"}),
        ("update", {"action": "delete_subtree", "nid": "x"}),
        ("update", {"action": "insert_xml", "nid": 1, "fragment": "<b/>",
                    "before": "x"}),
    ])
    def test_malformed_integer_is_a_bad_request(self, served, op, params):
        """A parameter that should be an integer and is not (or is out
        of range) is ``bad_request``, never ``internal``; the payload of
        ``doc.import`` must ride the frame tail."""
        with Client(served.host, served.port) as client:
            if params.get("epoch") == "live":
                live = client.call("repl.manifest")["wal_epoch"]
                params = {**params, "epoch": live}
            with pytest.raises(ClientError) as err:
                client.call(op, **params)
            assert err.value.code == wire.E_BAD_REQUEST, err.value
            assert client.ping() == {}


class TestFrameCap:
    def test_oversized_response_fails_its_request(self, served, monkeypatch):
        """An answer over the frame cap fails its own request, with its
        request id: the client does not wait out its timeout.  At the
        real cap that is any answer over 1,048,568 rows
        (docs/serving.md): 16 tail bytes a row, plus the JSON."""
        def answer(rows: int) -> dict:
            zeros = np.zeros(rows, np.int64)
            return wire.ok_response(
                1, wire.pack_rows(RowColumns(["d"], [rows], zeros, zeros)))

        assert wire.encode_frame(answer(1_048_568))
        with pytest.raises(wire.WireError, match="exceeds"):
            wire.encode_frame(answer(1_048_569))
        served.db.load("big", fixture_xml(3000))
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 20_000)
        with Client(served.host, served.port, timeout=5.0) as client:
            started = time.monotonic()
            with pytest.raises(ClientError) as err:
                client.query_rows("//p")
            assert time.monotonic() - started < 4.0
            assert err.value.code == wire.E_INTERNAL
            assert "exceeds" in str(err.value)
            assert client.ping() == {}  # the connection survives
            assert len(client.query_rows("//p", document="people")) == 30
        counters = served.db.metrics()["counters"]
        assert counters["server.errors.internal"] == 1

    def test_export_chunk_is_capped(self, served, monkeypatch):
        """``doc.export`` serves at most ``DEFAULT_CHUNK`` bytes per
        chunk, whatever ``length`` asks for (a chunk near the frame cap
        would leave no room for the JSON beside it)."""
        monkeypatch.setattr(wire, "DEFAULT_CHUNK", 256)
        whole = served.db.export_document("people")
        assert len(whole) > 256
        with socket.create_connection((served.host, served.port)) as raw:
            wire.write_frame(raw, {"id": 1, "op": "doc.export",
                                   "name": "people", "offset": 0,
                                   "length": 64 << 20})
            stream = raw.makefile("rb")
            (length,) = struct.unpack(">I", stream.read(4))
            first = json.loads(stream.read(length))
            _offset, size = first["result"]["data"]
            assert size == 256 == first["tail"]
            assert stream.read(size) == whole[:256]
            assert not first["result"]["eof"]
        with Client(served.host, served.port) as client:
            assert client.export_document("people") == whole


class TestAdmissionControl:
    def test_busy_rejection_when_update_queue_full(self, tmp_path):
        from .conftest import Served

        box = Served(tmp_path, server_kwargs={"max_pending_updates": 1})
        try:
            ages, _ = classified_text_nids(box.doc)
            controller = box.db.manager.concurrency
            with Client(box.host, box.port) as client:
                # Stall the engine's writer path: the first update
                # occupies the only admission slot but cannot finish.
                controller.write_lock.acquire()
                try:
                    first = client.send("update", action="update_text",
                                        nid=ages[0], text="55")
                    deadline = time.time() + 10
                    while (box.server._pending_updates < 1
                           and time.time() < deadline):
                        time.sleep(0.005)
                    assert box.server._pending_updates == 1
                    second = client.send("update", action="update_text",
                                         nid=ages[1], text="56")
                    with pytest.raises(ClientError) as err:
                        client.receive(second)
                    assert err.value.code == wire.E_BUSY
                    assert err.value.retry_after_ms > 0
                finally:
                    controller.write_lock.release()
                # The stalled update completes once the engine frees up.
                assert client.receive(first)["recomputed"] >= 1
                # And a retry of the rejected one now succeeds.
                assert client.update_text(ages[1], "56")["recomputed"] >= 1
        finally:
            box.stop()

    def test_draining_server_rejects_new_work(self, served):
        ages, _ = classified_text_nids(served.doc)
        with Client(served.host, served.port) as client:
            client.ping()
            served.server._state = "draining"
            try:
                with pytest.raises(ClientError) as err:
                    client.query("//p")
                assert err.value.code == wire.E_SHUTTING_DOWN
                with pytest.raises(ClientError) as err:
                    client.update_text(ages[0], "1")
                assert err.value.code == wire.E_SHUTTING_DOWN
                assert client.ping() == {}  # liveness probes still answer
            finally:
                served.server._state = "serving"
