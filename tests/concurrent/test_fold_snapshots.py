"""A fold under pinned readers.

An index folds its delta into a new base run under the writer lock
while read views, session pins and retained ``as_of`` epochs still hold
the ``(base, delta snapshot)`` pair they pinned.  A view and an
``as_of`` epoch opened before the fold must answer after it exactly what
they answered before it — checked differentially against
``evaluate_naive`` on the same pinned snapshot.
"""

import threading

import pytest

from repro.database import Database

from .harness import classified_text_nids, fixture_xml, oracle

QUERIES = [
    "//p[.//age = 77]",
    "//p[.//age = 3]",
    "//p[.//age >= 10]",
    "//p[.//age < 5]",
    '//p[.//name = "n3"]',
    '//p[.//name = "zz"]',
]


@pytest.fixture
def db(tmp_path):
    db = Database(str(tmp_path / "fold"), concurrent=True, retain_epochs=400,
                  checkpoint_every=0, typed=("double",))
    yield db
    db.close(checkpoint=False)


def _write_in_thread(fn):
    """Writes are refused inside a view on the same thread."""
    thread = threading.Thread(target=fn)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()


def test_view_and_as_of_epoch_answer_the_same_after_a_fold(db):
    doc = db.load("people", fixture_xml(60))
    ages, names = classified_text_nids(doc)
    # The pinned versions carry a delta of their own.
    for i in range(4):
        db.update_text(ages[i], "77")
        db.update_text(names[i], "zz")
    indexes = db.manager.indexes
    past = db.manager.epoch
    pinned_bases = [index.tree.snapshot().base_nids for index in indexes]
    folded_at = [index.folded_at for index in indexes]
    deltas = [index.tree.snapshot() for index in indexes]
    assert all(len(delta.dead) + len(delta.ins_nids) for delta in deltas)

    def churn():
        for round_ in range(3):
            for i, nid in enumerate(ages):
                db.update_text(nid, str((i + round_) % 7))
            for nid in names[:20]:
                db.update_text(nid, f"r{round_}")

    with db.read_view() as view:
        assert view.epoch == past
        before = {text: db.query(text) for text in QUERIES}
        for text in QUERIES:
            assert sorted(before[text]) == oracle(doc, text), text
        assert before["//p[.//age = 77]"] and before['//p[.//name = "zz"]']
        _write_in_thread(churn)
        # Every index folded at least once behind the view's back ...
        for index, base, at in zip(indexes, pinned_bases, folded_at):
            assert index.folded_at > at, index.kind
            assert index.tree.snapshot().base_nids is not base, index.kind
            assert view.tree_for(index).base_nids is base, index.kind
        # ... and the view still reads the pair it pinned.
        for text in QUERIES:
            assert db.query(text) == before[text], text
            assert sorted(db.query(text)) == oracle(doc, text), text

    # The live state moved on; the retained epoch did not.
    assert db.query("//p[.//age = 77]") == []
    assert db.query('//p[.//name = "zz"]') == []
    for text in QUERIES:
        assert db.query(text, as_of=past) == before[text], text
    with db.manager.concurrency.read_view_as_of(past):
        for text in QUERIES:
            assert sorted(db.query(text)) == oracle(doc, text), text
    assert db.verify().ok
