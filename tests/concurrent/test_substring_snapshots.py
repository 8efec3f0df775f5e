"""Text updates with a substring index configured stay on the MVCC path.

The q-gram index is a run like every other index, so a text update
publishes a new version of it beside the pinned ones instead of
draining readers.  A session pin, an ``as_of`` epoch, an open read view
and an open transaction must therefore all survive a text update that
removes a needle.  Each pinned reader first asks the index *after* the
update (so no memoized answer can stand in for its pinned run), and
every answer is checked against ``evaluate_naive`` on the same pinned
snapshot.
"""

import threading

import pytest

from repro.core import IndexManager
from repro.database import Database
from repro.query import query
from repro.txn import TransactionManager
from repro.xmldb import TEXT

from .harness import oracle

XML = (
    "<root>"
    "<p><name>needle in a haystack</name><age>1</age></p>"
    "<p><name>haystack only</name><age>2</age></p>"
    "<p><name>another needle here</name><age>3</age></p>"
    "<p><name>plain hay</name><age>4</age></p>"
    "</root>"
)

NEEDLE = '//p[contains(name/text(), "needle")]'
QUERIES = [
    NEEDLE,
    '//p[matches(name/text(), "need.e")]',
    '//p[contains(name/text(), "haystack")]',
    "//p[.//age >= 2]",
]


def _name_nids(doc) -> list[int]:
    return [
        doc.nid[pre]
        for pre in range(len(doc))
        if doc.kind[pre] == TEXT and doc.name_of(doc.parent(pre)) == "name"
    ]


def _oracle(doc) -> dict[str, list[int]]:
    return {text: oracle(doc, text) for text in QUERIES}


def _answers(run, doc) -> dict[str, list[int]]:
    """Every query's indexed answer, each checked against the oracle
    at the caller's snapshot."""
    answers = {}
    for text in QUERIES:
        answers[text] = sorted(run(text))
        assert answers[text] == oracle(doc, text), text
    return answers


@pytest.fixture
def db(tmp_path):
    db = Database(str(tmp_path / "db"), concurrent=True, retain_epochs=16,
                  checkpoint_every=0, typed=("double",), substring=True)
    yield db
    db.close(checkpoint=False)


def test_session_pin_answers_at_its_epoch_across_a_text_update(db):
    doc = db.load("people", XML)
    controller = db.manager.concurrency
    pin = controller.open_pin()
    try:
        with controller.read_view_at(pin):
            before = _oracle(doc)
        assert len(before[NEEDLE]) == 2
        db.update_text(_name_nids(doc)[0], "hay again")
        with controller.read_view_at(pin):
            assert controller.pin_valid(pin)
            assert _answers(db.query, doc) == before
    finally:
        controller.close_pin(pin)
    assert len(db.query(NEEDLE)) == 1


def test_as_of_epoch_answers_across_a_text_update(db):
    doc = db.load("people", XML)
    past = db.manager.epoch
    with db.read_view():
        before = _oracle(doc)
    db.update_text(_name_nids(doc)[0], "hay again")
    assert past in db.retained_epochs()
    with db.manager.concurrency.read_view_as_of(past):
        assert _answers(db.query, doc) == before
    for text in QUERIES:
        assert sorted(db.query(text, as_of=past)) == before[text], text
    assert len(db.query(NEEDLE)) == 1


def test_open_read_view_does_not_block_a_text_update(db):
    doc = db.load("people", XML)
    writer = threading.Thread(
        target=db.update_text, args=(_name_nids(doc)[0], "hay again")
    )
    try:
        with db.read_view():
            before = _oracle(doc)
            writer.start()
            writer.join(timeout=10)
            assert not writer.is_alive(), "text update waited for a reader"
            assert _answers(db.query, doc) == before
    finally:
        writer.join(timeout=60)
    with db.read_view():
        after = _answers(db.query, doc)
    assert len(after[NEEDLE]) == 1
    assert db.verify().ok


def test_transaction_commits_across_an_unrelated_text_update():
    manager = IndexManager(typed=("double",), substring=True)
    doc = manager.load("people", XML)
    first, second = _name_nids(doc)[:2]
    transactions = TransactionManager(manager)
    txn = transactions.begin()
    txn.update_text(first, "needle moved")
    manager.update_text(second, "needle arrived")
    # Repeatable read: the transaction still sees its own epoch.
    assert txn.read_text(second) == "haystack only"
    txn.commit()
    with manager.read_view():
        answers = _answers(lambda text: query(manager, text), doc)
    assert txn.commit_epoch == manager.epoch
    assert len(answers[NEEDLE]) == 3
    manager.check_consistency()
