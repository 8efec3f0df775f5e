"""Time travel: the retained-epoch window, ``as_of`` queries at the
engine and wire levels, and the window's documented edges (process
lifetime, structural invalidation, bounded retention)."""

import pytest

from repro.client import Client, ClientError
from repro.core.concurrency import EpochNotRetained
from repro.database import Database
from repro.wire import E_NO_EPOCH

from ..concurrent.harness import classified_text_nids, fixture_xml
from .conftest import wait_until


@pytest.fixture
def db(tmp_path):
    db = Database(str(tmp_path / "tt"), concurrent=True, retain_epochs=8,
                  checkpoint_every=0, typed=("double",))
    yield db
    db.close(checkpoint=False)


class TestEngineWindow:
    def test_as_of_answers_each_retained_epoch(self, db):
        doc = db.load("people", fixture_xml())
        ages, _names = classified_text_nids(doc)
        history = {}  # epoch -> expected hit count for //p[.//age = 0]
        history[db.manager.epoch] = len(db.query("//p[.//age = 0]"))
        for value in ("0", "0", "1"):
            db.update_text(ages[1], value)
            history[db.manager.epoch] = len(db.query("//p[.//age = 0]"))
        window = db.retained_epochs()
        assert window == sorted(history)
        for epoch, expected in history.items():
            assert len(db.query("//p[.//age = 0]", as_of=epoch)) \
                == expected, epoch
        # Counts actually differ across the window, so the assertions
        # above distinguish epochs rather than passing vacuously.
        assert len(set(history.values())) > 1

    def test_window_is_bounded(self, tmp_path):
        db = Database(str(tmp_path / "small"), concurrent=True,
                      retain_epochs=2, checkpoint_every=0)
        try:
            doc = db.load("people", fixture_xml())
            ages, _names = classified_text_nids(doc)
            epochs = []
            for i in range(6):
                db.update_text(ages[0], str(i))
                epochs.append(db.manager.epoch)
            window = db.retained_epochs()
            # Two retained historical epochs at most, plus the current.
            assert len(window) <= 3
            assert window[-1] == db.manager.epoch
            evicted = epochs[0]
            with pytest.raises(EpochNotRetained, match="not retained"):
                db.query("//p", as_of=evicted)
        finally:
            db.close(checkpoint=False)

    def test_structural_update_clears_history(self, db):
        doc = db.load("people", fixture_xml())
        ages, _names = classified_text_nids(doc)
        db.update_text(ages[0], "42")
        old = db.retained_epochs()[0]
        root_nid = doc.nid[doc.root_element()]
        db.insert_xml(root_nid, "<p><age>7</age></p>")
        # In-place column splices invalidate retained snapshots; only
        # the current epoch survives.
        assert db.retained_epochs() == [db.manager.epoch]
        with pytest.raises(EpochNotRetained):
            db.query("//p", as_of=old)

    def test_retention_requires_concurrency(self, tmp_path):
        # Every database is concurrent: a default one keeps the window.
        with Database(str(tmp_path / "plain"), retain_epochs=4) as db:
            doc = db.load("a", "<a><b>1</b></a>")
            past = db.manager.epoch
            db.update_text(doc.nid[3], "2")
            assert db.retained_epochs() == [past, db.manager.epoch]
            assert db.query("//a[b = 1]", as_of=past) == [doc.nid[1]]
            assert db.query("//a[b = 1]") == []

    def test_as_of_requires_concurrency(self, tmp_path):
        # Without retain_epochs only the published epoch answers.
        with Database(str(tmp_path / "plain")) as db:
            db.load("a", "<a><b>1</b></a>")
            assert db.retained_epochs() == [db.manager.epoch]
            with pytest.raises(EpochNotRetained, match="not retained"):
                db.query("//b", as_of=0)


class TestWireAsOf:
    def test_as_of_over_the_wire(self, tmp_path):
        from repro.server import ServerThread

        db = Database(str(tmp_path / "served"), concurrent=True,
                      retain_epochs=8, checkpoint_every=0)
        doc = db.load("people", fixture_xml())
        ages, _names = classified_text_nids(doc)
        past = db.manager.epoch
        db.update_text(ages[0], "9999")
        thread = ServerThread(db)
        host, port = thread.start()
        try:
            with Client(host, port) as client:
                assert "as_of" in client.handshake()["features"]
                info = client.epochs()
                assert info["epochs"][-1] == info["current"]
                assert past in info["epochs"]
                now_hits = client.query("//p[.//age = 9999]")
                assert len(now_hits) == 1
                assert client.query("//p[.//age = 9999]", as_of=past) == []
                with pytest.raises(ClientError) as excinfo:
                    client.query("//p", as_of=10**6)
                assert excinfo.value.code == E_NO_EPOCH
                with pytest.raises(ClientError) as excinfo:
                    client.call("query", xpath="//p", as_of="yesterday")
                assert excinfo.value.code == "bad_request"
        finally:
            thread.stop()
            db.close(checkpoint=False)

    def test_follower_serves_as_of_locally(self, primary, make_follower):
        """Followers keep their own retention window: historical reads
        scale out with the replica pool."""
        from repro.repl import FollowerServer

        follower = make_follower(name="tt", start=True, retain_epochs=8)
        primary.db.update_text(primary.age_nids[0], "31415")
        wait_until(lambda: follower.engine.query("//p[.//age = 31415]"),
                   message="replication of the probe update")
        past = follower.engine.manager.epoch
        primary.db.update_text(primary.age_nids[0], "27182")
        wait_until(lambda: follower.engine.query("//p[.//age = 27182]"),
                   message="replication of the second update")
        server = FollowerServer(follower)
        host, port = server.start()
        try:
            with Client(host, port) as client:
                assert client.query("//p[.//age = 31415]") == []
                assert len(client.query("//p[.//age = 31415]",
                                        as_of=past)) == 1
        finally:
            server.stop()
