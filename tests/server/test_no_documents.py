"""Queries over a database that holds no documents.

A fresh database, and one whose last document was unloaded, answers
every query form with nothing: ``query``, ``query_rows`` and
``query_columns`` in process, and ``query``/``query_rows`` through a
live :class:`~repro.server.ServerThread`.
"""

import pytest

from repro.client import Client
from repro.server import ServerThread

from ..concurrent.harness import fixture_xml
from .conftest import open_db

QUERIES = ["//p[.//age = 7]", "//p[.//age >= 12]", "//age/text()", "//p"]


@pytest.fixture(params=["fresh", "unloaded"])
def empty_db(request, tmp_path):
    db = open_db(tmp_path)
    if request.param == "unloaded":
        db.load("people", fixture_xml())
        db.unload("people")
    yield db
    db.close()


@pytest.mark.parametrize("text", QUERIES)
def test_in_process_answers_are_empty(empty_db, text):
    assert empty_db.query(text) == []
    assert empty_db.query_rows(text) == []
    answer = empty_db.query_columns(text)
    assert answer.documents == [] and answer.counts == []
    assert answer.rows() == []


def test_served_answers_are_empty(empty_db):
    thread = ServerThread(empty_db)
    host, port = thread.start()
    try:
        with Client(host, port) as client:
            for text in QUERIES:
                assert client.query(text) == []
                assert client.query_rows(text) == []
    finally:
        thread.stop()
