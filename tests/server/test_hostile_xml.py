"""Hostile XML handed to ``load`` and ``insert_xml``, in process and
over the wire.

Two entity-amplification documents (one past expat's own 8 MiB
activation threshold, one below it), an external entity reference, an
undefined entity after an external DTD subset and a lone surrogate are
each refused by the parser before anything is shredded: in process the
load raises :class:`~repro.errors.XmlSyntaxError` and the database is
unchanged; through a live :class:`~repro.server.ServerThread` the
request fails with an ``engine`` error and the server keeps serving.
"""

import pytest

from repro import wire
from repro.client import Client, ClientError
from repro.errors import XmlSyntaxError

from ..concurrent.harness import fixture_xml
from ..xmldb.test_parser import amplified
from .conftest import open_db

HOSTILE = {
    "amplification": amplified(7),
    "amplification_below_8_mib": amplified(6),
    "external_entity": (
        '<!DOCTYPE r [<!ENTITY ext SYSTEM "file:///etc/hostname">]>'
        "<r>&ext;</r>"
    ),
    "undefined_after_external_subset": (
        '<!DOCTYPE r SYSTEM "r.dtd"><r>&undefined;</r>'
    ),
    "lone_surrogate": "<r>a\ud800b</r>",
}


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_in_process_load_refuses_and_changes_nothing(tmp_path, case):
    db = open_db(tmp_path)
    db.load("people", fixture_xml())
    before = db.query_rows("//p")
    with pytest.raises(XmlSyntaxError):
        db.load("hostile", HOSTILE[case])
    assert list(db.manager.store.documents) == ["people"]
    assert db.query_rows("//p") == before
    db.close()
    reopened = open_db(tmp_path)
    assert list(reopened.manager.store.documents) == ["people"]
    assert reopened.query_rows("//p") == before
    reopened.close()


def test_served_load_is_an_engine_error_and_serving_goes_on(served):
    with Client(served.host, served.port) as client:
        for case in sorted(HOSTILE):
            with pytest.raises(ClientError) as err:
                client.call("load", name=case, xml=HOSTILE[case])
            assert err.value.code == wire.E_ENGINE, case
            assert client.ping() == {}
        client.call("load", name="more", xml=fixture_xml(3))
        rows = client.query_rows("//p")
    assert {doc for doc, _pre, _nid in rows} == {"people", "more"}


def test_in_process_insert_xml_refuses_and_changes_nothing(tmp_path):
    db = open_db(tmp_path)
    doc = db.load("people", fixture_xml())
    before = db.query_rows("//p")
    with pytest.raises(XmlSyntaxError):
        db.insert_xml(doc.nid[0], amplified(6))
    assert db.query_rows("//p") == before
    db.close()


def test_served_insert_xml_is_an_engine_error_and_serving_goes_on(served):
    with Client(served.host, served.port) as client:
        before = client.query_rows("//p")
        root = before[0][2]
        with pytest.raises(ClientError) as err:
            client.insert_xml(root, amplified(6))
        assert err.value.code == wire.E_ENGINE
        assert client.ping() == {}
        assert client.query_rows("//p") == before
