"""The ``query`` answer codec: packed columns in, the same rows out.

Over a live :class:`~repro.server.ServerThread`, ``Client.query`` and
``Client.query_rows`` must equal ``Database.query`` and
``Database.query_rows`` on the served database — whatever the number of
documents, the scope, the pinned view or epoch, and however fragmented
the nid runs are.  :func:`repro.wire.pack_rows` /
:func:`~repro.wire.unpack_rows` must round-trip any answer through a
frame, its columns riding the frame's tail.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import wire
from repro.client import Client
from repro.xmldb.columns import RowColumns
from repro.xmldb.document import ELEM

from ..concurrent.harness import classified_text_nids, fixture_xml
from .conftest import ByteStream, Served

QUERIES = [
    "//p[.//age = 7]",
    '//p[.//name = "n3"]',
    "//p[.//age >= 12]",
    "//age/text()",
]
EMPTY = "//p[.//age = 4242]"


def assert_same(client: Client, db, text: str, **scope) -> None:
    nids = client.query(text, **scope)
    rows = client.query_rows(text, **scope)
    in_view = {key: value for key, value in scope.items() if key != "view"}
    assert nids == db.query(text, **in_view)
    assert rows == db.query_rows(text, **in_view)
    assert all(type(row) is tuple for row in rows)
    assert [nid for _doc, _pre, nid in rows] == nids


@pytest.fixture
def four(tmp_path):
    box = Served(tmp_path, db_kwargs={"retain_epochs": 8})
    for k, persons in ((2, 12), (3, 40), (4, 7)):
        box.db.load(f"people{k}", fixture_xml(persons))
    yield box
    box.stop()


class TestDifferential:
    def test_empty_answer(self, served):
        with Client(served.host, served.port) as client:
            assert client.query(EMPTY) == []
            assert client.query_rows(EMPTY) == []
            assert_same(client, served.db, EMPTY)

    def test_one_document(self, served):
        with Client(served.host, served.port) as client:
            for text in QUERIES:
                assert_same(client, served.db, text)

    def test_four_documents(self, four):
        with Client(four.host, four.port) as client:
            for text in QUERIES + [EMPTY]:
                assert_same(client, four.db, text)
            documents = {doc for doc, _pre, _nid
                         in client.query_rows("//age/text()")}
        assert len(documents) == 4

    def test_document_scope(self, four):
        with Client(four.host, four.port) as client:
            for name in ("people", "people3", "people4"):
                for text in QUERIES:
                    assert_same(client, four.db, text, document=name)

    def test_view_pin_held_across_update(self, served):
        ages, _names = classified_text_nids(served.doc)
        text = "//p[.//age = 3]"
        before = (served.db.query(text), served.db.query_rows(text))
        with Client(served.host, served.port) as client:
            view = client.open_view()["view"]
            client.update_text(ages[3], "96")
            pinned = (client.query(text, view=view),
                      client.query_rows(text, view=view))
            assert_same(client, served.db, text)
            client.close_view(view)
        assert pinned == before
        assert len(served.db.query(text)) == len(before[0]) - 1

    def test_as_of(self, four):
        ages, _names = classified_text_nids(four.doc)
        with Client(four.host, four.port) as client:
            epoch = client.epochs()["current"]
            client.update_text(ages[7], "95")
            for text in QUERIES:
                assert_same(client, four.db, text, as_of=epoch)
                assert_same(client, four.db, text)

    def test_fragmented_nid_runs(self, four):
        doc = four.doc
        persons = [doc.parent(pre) for pre in range(len(doc))
                   if doc.kind[pre] == ELEM and doc.name_of(pre) == "name"]
        grown, doomed = doc.nid[persons[4]], doc.nid[persons[9]]
        with Client(four.host, four.port) as client:
            client.insert_xml(grown, "<p><name>n3</name><age>7</age></p>")
            client.delete_subtree(doomed)
            assert four.db.store.document("people").columns().runs > 1
            for text in QUERIES:
                assert_same(client, four.db, text)
                assert_same(client, four.db, text, document="people")

    def test_documents_scatter_lists_a_subset(self, four):
        listed = ["people2", "people4"]
        with Client(four.host, four.port) as client:
            for text in QUERIES:
                result = client.call("query", xpath=text, documents=listed)
                expected = [row for row in four.db.query_rows(text)
                            if row[0] in listed]
                assert wire.unpack_rows(result).rows() == expected


names = st.text(min_size=0, max_size=12)


def through_a_frame(result: dict) -> dict:
    """``result`` encoded into a response frame and decoded back."""
    frame = wire.encode_frame(wire.ok_response(1, result))
    return wire.read_frame(ByteStream(frame))["result"]


def ints(top: int):
    """Ints in ``[-top, top)``, edges included; nids near ``2**62`` when
    the range is int64's."""
    edges = [0, 1, top - 1, -top]
    if top > 2**31:
        edges += [2**62 - 1, 2**62, 2**62 + 1]
    return st.one_of(st.integers(-top, top - 1), st.sampled_from(edges))


@st.composite
def answers(draw) -> RowColumns:
    documents = draw(st.lists(names, max_size=6))
    counts = [draw(st.integers(min_value=0, max_value=40))
              for _ in documents]
    size = sum(counts)
    # Each column all int32-sized or not: one width must carry both.
    pres, nids = (
        draw(st.lists(ints(draw(st.sampled_from([2**31, 2**63]))),
                      min_size=size, max_size=size))
        for _ in range(2))
    return RowColumns(documents, counts, np.array(pres, dtype=np.int64),
                      np.array(nids, dtype=np.int64))


class TestCodec:
    @settings(max_examples=100, deadline=None)
    @given(answers())
    def test_round_trip_through_a_frame(self, answer):
        back = wire.unpack_rows(through_a_frame(wire.pack_rows(answer)))
        assert back.documents == answer.documents
        assert back.counts == answer.counts
        assert back.pres.tolist() == answer.pres.tolist()
        assert back.nids.tolist() == answer.nids.tolist()
        assert back.rows() == answer.rows()

    def test_column_width_follows_the_values(self):
        """One width: 8 bytes per value, whatever the values."""
        small = np.arange(64, dtype=np.int64) * 7
        for values in (small, small + 2**31, small - 2**31 - 1,
                       small[:1] + 2**62):
            answer = RowColumns(["a"], [len(values)], values, values)
            result = through_a_frame(wire.pack_rows(answer))
            assert len(result["pres"]) == len(result["nids"]) \
                == 8 * len(values)
            assert wire.unpack_rows(result).rows() == answer.rows()

    def test_split_and_join_invert(self):
        answer = RowColumns(["a", "b", "c"], [2, 0, 1],
                            np.array([4, 9, 1]), np.array([40, 90, 7]))
        parts = answer.split()
        assert list(parts) == ["a", "b", "c"]
        joined = RowColumns.join((name, *parts[name]) for name in "ca")
        assert joined.rows() == [("c", 1, 7), ("a", 4, 40), ("a", 9, 90)]
        assert RowColumns.join([]).rows() == []

    @pytest.mark.parametrize("result", [
        {"documents": ["a"], "counts": [2], "pres": b"", "nids": b""},
        {"documents": ["a"], "counts": [], "pres": b"", "nids": b""},
        {"documents": ["a", "b"], "counts": [-1, 1],
         "pres": bytes(8), "nids": bytes(8)},
        {"documents": [], "counts": [], "pres": b"A", "nids": b""},
        {"documents": [], "counts": [], "pres": bytes(3), "nids": bytes(3)},
        {"documents": ["a"], "counts": [2], "pres": bytes(12),
         "nids": bytes(12)},
        # Spans in a frame without a tail stay lists: not columns.
        {"documents": [], "counts": [], "pres": [0, 0], "nids": [0, 0]},
        {"nids": b""},
    ])
    def test_malformed_result_is_a_wire_error(self, result):
        with pytest.raises(wire.WireError):
            wire.unpack_rows(through_a_frame(result))

