"""One event loop serves hundreds of connections (docs/serving.md).

128 blocking clients each put a ``query`` on the wire before any answer
is read, then a few of them update, and every connection queries
again: each answer must equal the in-process ``Database.query_rows``
of the state it was sent against.
"""

from contextlib import ExitStack

from repro import wire
from repro.client import Client

from ..concurrent.harness import classified_text_nids

CONNECTIONS = 128
WRITERS = 6

_QUERIES = [
    "//p[.//age = 7]",
    '//p[.//name = "n3"]',
    "//p[.//age >= 12]",
    '//p[contains(name/text(), "n1")]',
]


def _query_everywhere(clients, db) -> None:
    """Send one query per connection, then receive them all."""
    sent = [
        (client, text, client.send("query", xpath=text))
        for slot, client in enumerate(clients)
        for text in [_QUERIES[slot % len(_QUERIES)]]
    ]
    expected = {text: db.query_rows(text) for text in _QUERIES}
    for client, text, request_id in sent:
        answer = wire.unpack_rows(client.receive(request_id)).rows()
        assert answer == expected[text], text


def test_pipelined_queries_on_128_connections(served):
    ages, _names = classified_text_nids(served.doc)
    with ExitStack() as stack:
        clients = [
            stack.enter_context(Client(served.host, served.port))
            for _ in range(CONNECTIONS)
        ]
        _query_everywhere(clients, served.db)
        acks = [
            (client, client.send("update", action="update_text",
                                 nid=ages[slot], text="7"))
            for slot, client in enumerate(clients[:WRITERS])
        ]
        for client, request_id in acks:
            assert client.receive(request_id)["recomputed"] >= 1
        _query_everywhere(clients, served.db)
    assert len(served.db.query("//p[.//age = 7]")) >= WRITERS
    assert served.db.metrics()["counters"]["server.connections"] >= (
        CONNECTIONS)
