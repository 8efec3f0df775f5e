"""One engine mode: every database is concurrent and group-committed.

A default :class:`~repro.database.Database` (no flags) pins read views,
answers ``as_of`` inside its retained window and is served over the
wire; a bare :class:`~repro.core.IndexManager` backs transactions
without enabling anything; a clean reopen publishes the runs it loaded
from disk; and the settings of the removed modes are refused.
"""

import pytest

from repro.client import Client
from repro.core import IndexManager
from repro.database import Database
from repro.server import ServerThread
from repro.shard import ShardCluster
from repro.txn import TransactionManager

from .harness import classified_text_nids, fixture_xml, oracle

#: Routed to the string, typed and substring indices.
QUERIES = [
    "//p[.//age = 7]",
    '//p[.//name = "n3"]',
    "//p[.//age >= 20]",
    '//p[contains(name/text(), "n1")]',
]


class TestDefaultDatabase:
    def test_read_view_and_as_of(self, tmp_path):
        text = "//p[.//age = 0]"
        with Database(str(tmp_path / "db"), retain_epochs=4,
                      checkpoint_every=0) as db:
            doc = db.load("people", fixture_xml())
            ages, _names = classified_text_nids(doc)
            past = db.manager.epoch
            before = sorted(db.query(text))
            with db.read_view() as view:
                assert view.epoch == past
                assert sorted(db.query(text)) == before
            db.update_text(ages[0], "999")
            assert sorted(db.query(text)) != before
            assert sorted(db.query(text, as_of=past)) == before

    def test_served_without_flags(self, tmp_path):
        db = Database(str(tmp_path / "db"), checkpoint_every=0)
        doc = db.load("people", fixture_xml())
        ages, _names = classified_text_nids(doc)
        thread = ServerThread(db)
        host, port = thread.start()
        try:
            with Client(host, port) as client:
                client.update_text(ages[7], "0")
                hits = sorted(client.query("//p[.//age = 0]"))
        finally:
            thread.stop()
        # Persons 0 and 25, and person 7 after the update.
        assert len(hits) == 3
        with Database(str(tmp_path / "db")) as db:
            assert hits == oracle(db.store.document("people"),
                                  "//p[.//age = 0]")


def test_transactions_on_a_bare_manager():
    manager = IndexManager()
    doc = manager.load("people", fixture_xml())
    ages, _names = classified_text_nids(doc)
    with manager.read_view() as view:
        assert view.epoch == manager.epoch
    txn = TransactionManager(manager).begin()
    txn.update_text(ages[0], "999")
    assert txn.read_text(ages[0]) == "999"
    assert list(manager.lookup_typed_equal("double", 999)) == []
    txn.commit()
    assert ages[0] in set(manager.lookup_typed_equal("double", 999))
    manager.check_consistency()


def test_clean_reopen_serves_the_loaded_runs(tmp_path):
    """Opening with no WAL tail installs every run outside a writer
    scope; the runs must be published, or a read view pins the empty
    snapshot the controller took at construction."""
    path = str(tmp_path / "db")
    with Database(path, substring=True) as db:
        db.load("people", fixture_xml())
        db.load("more", fixture_xml(45))
    with Database(path) as db:
        assert db.recovery.clean
        answered = 0
        with db.read_view():
            for name, doc in db.store.documents.items():
                for text in QUERIES:
                    expected = oracle(doc, text)
                    assert sorted(db.query(text, document=name)) \
                        == expected, (name, text)
                    answered += len(expected)
        assert answered > 0


class TestRemovedModes:
    @pytest.mark.parametrize("setting", [
        {"concurrent": False},
        {"group_commit": False},
        {"group_batch_wait_ms": 5},
    ])
    def test_database_refuses(self, tmp_path, setting):
        (name,) = setting
        with pytest.raises(ValueError, match=name):
            Database(str(tmp_path / "db"), **setting)
        assert not (tmp_path / "db").exists()

    def test_cluster_refuses(self, tmp_path):
        with pytest.raises(ValueError, match="group_commit"):
            ShardCluster(str(tmp_path / "cluster"), shards=2,
                         transport="thread", group_commit=False)

    def test_the_one_mode_is_accepted(self, tmp_path):
        # The settings every engine runs with stay accepted.
        Database(str(tmp_path / "db"), sync="fsync", concurrent=True,
                 group_commit=True, group_batch_wait_ms=0).close()
