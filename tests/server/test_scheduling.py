"""Where requests run (docs/serving.md): reads on the event loop,
updates on the worker pool.

A large ``insert_xml`` must not hold the loop: a ``ping`` sent on
another connection while it runs is answered first.  A read that waits
on the shared latch behind an exclusive holder does hold the loop (the
known stall until reads stop taking the latch), but it cannot deadlock:
it answers once the latch is free, and its connection keeps serving.
"""

import select
import socket
import time

from repro import wire
from repro.client import Client

PERSONS = 2000  # an insert of 1 + 5 * PERSONS nodes: ~0.4 s on a 2-vCPU box


def _raw(served) -> socket.socket:
    return socket.create_connection((served.host, served.port), timeout=60)


def _answered(sock: socket.socket, within: float) -> bool:
    """Whether a reply is waiting on ``sock`` within ``within`` seconds."""
    return bool(select.select([sock], [], [], within)[0])


def test_ping_is_answered_while_a_large_insert_runs(served):
    root = served.doc.nid[served.doc.root_element()]
    fragment = "<batch>" + "".join(
        f"<p><name>x{i}</name><age>{i % 50}</age></p>"
        for i in range(PERSONS)
    ) + "</batch>"
    with _raw(served) as writer, Client(served.host, served.port) as pinger:
        writer.sendall(wire.encode_frame({
            "id": 1, "op": "update", "action": "insert_xml", "nid": root,
            "fragment": fragment,
        }))
        time.sleep(0.02)  # the server has read the insert and started it
        pinger.ping()
        assert not _answered(writer, 0), "the insert held the event loop"
        reply = wire.read_frame(writer)
    assert reply == {"id": 1, "ok": True,
                     "result": {"added": 1 + 5 * PERSONS}}


def test_query_waits_for_an_exclusive_holder_then_answers(served):
    text = "//p[.//age = 7]"
    with _raw(served) as sock:
        with served.db.manager.concurrency.exclusive(structural=False):
            sock.sendall(wire.encode_frame(
                {"id": 1, "op": "query", "xpath": text}))
            assert not _answered(sock, 0.3)
        reply = wire.read_frame(sock)
        assert reply["ok"], reply
        assert (wire.unpack_rows(reply["result"]).rows()
                == served.db.query_rows(text))
        sock.sendall(wire.encode_frame({"id": 2, "op": "ping"}))
        assert wire.read_frame(sock) == {"id": 2, "ok": True, "result": {}}
