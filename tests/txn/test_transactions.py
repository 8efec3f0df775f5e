"""Tests for the ancestor-lock-free transaction layer."""

import random
import sys
import threading
import time

import pytest

from repro.core import IndexManager
from repro.database import Database
from repro.errors import TransactionConflict, TransactionStateError
from repro.txn import TransactionManager
from repro.xmldb import TEXT

PERSON = (
    "<person>"
    "<name><first>Arthur</first><family>Dent</family></name>"
    "<age><decades>4</decades>2<years/></age>"
    "</person>"
)


@pytest.fixture()
def setup():
    index_manager = IndexManager(typed=("double",))
    index_manager.load("doc", PERSON)
    return index_manager, TransactionManager(index_manager)


def text_nid(index_manager, content):
    doc = index_manager.store.document("doc")
    for pre in range(len(doc)):
        if doc.kind[pre] == TEXT and doc.text_of(pre) == content:
            return doc.nid[pre]
    raise AssertionError(content)


class TestBasics:
    def test_commit_applies_writes(self, setup):
        manager, txns = setup
        txn = txns.begin()
        txn.update_text(text_nid(manager, "Dent"), "Prefect")
        txn.commit()
        assert list(manager.lookup_string("ArthurPrefect"))
        manager.check_consistency()

    def test_abort_discards_writes(self, setup):
        manager, txns = setup
        txn = txns.begin()
        txn.update_text(text_nid(manager, "Dent"), "Prefect")
        txn.abort()
        assert list(manager.lookup_string("ArthurDent"))
        assert not list(manager.lookup_string("ArthurPrefect"))

    def test_writes_invisible_until_commit(self, setup):
        manager, txns = setup
        txn = txns.begin()
        txn.update_text(text_nid(manager, "Dent"), "Prefect")
        assert list(manager.lookup_string("ArthurDent"))

    def test_read_your_own_writes(self, setup):
        manager, txns = setup
        nid = text_nid(manager, "Dent")
        txn = txns.begin()
        txn.update_text(nid, "Prefect")
        assert txn.read_text(nid) == "Prefect"
        other = txns.begin()
        assert other.read_text(nid) == "Dent"

    def test_context_manager_commits(self, setup):
        manager, txns = setup
        with txns.begin() as txn:
            txn.update_text(text_nid(manager, "Dent"), "Prefect")
        assert txn.status == "committed"
        assert list(manager.lookup_string("ArthurPrefect"))

    def test_context_manager_aborts_on_error(self, setup):
        manager, txns = setup
        with pytest.raises(RuntimeError):
            with txns.begin() as txn:
                txn.update_text(text_nid(manager, "Dent"), "Prefect")
                raise RuntimeError("boom")
        assert txn.status == "aborted"
        assert list(manager.lookup_string("ArthurDent"))

    def test_use_after_commit_rejected(self, setup):
        manager, txns = setup
        txn = txns.begin()
        txn.commit()
        with pytest.raises(TransactionStateError):
            txn.update_text(text_nid(manager, "Dent"), "x")
        with pytest.raises(TransactionStateError):
            txn.commit()

    def test_write_to_element_rejected(self, setup):
        manager, txns = setup
        doc = manager.store.document("doc")
        root = doc.nid[doc.root_element()]
        txn = txns.begin()
        with pytest.raises(TransactionStateError):
            txn.update_text(root, "x")


class TestConflicts:
    def test_write_write_conflict(self, setup):
        manager, txns = setup
        nid = text_nid(manager, "Dent")
        t1, t2 = txns.begin(), txns.begin()
        t1.update_text(nid, "Prefect")
        t2.update_text(nid, "Beeblebrox")
        t1.commit()
        with pytest.raises(TransactionConflict):
            t2.commit()
        assert t2.status == "aborted"
        assert list(manager.lookup_string("ArthurPrefect"))
        manager.check_consistency()

    def test_sibling_writes_do_not_conflict(self, setup):
        """The Section 5.1 claim: updates under a shared ancestor (here
        <name> and the root) need no ancestor lock and both commit."""
        manager, txns = setup
        t1, t2 = txns.begin(), txns.begin()
        t1.update_text(text_nid(manager, "Arthur"), "Ford")
        t2.update_text(text_nid(manager, "Dent"), "Prefect")
        t1.commit()
        t2.commit()  # no conflict despite shared ancestors
        assert list(manager.lookup_string("FordPrefect"))
        manager.check_consistency()

    def test_new_transaction_after_commit_sees_fresh_versions(self, setup):
        manager, txns = setup
        nid = text_nid(manager, "Dent")
        t1 = txns.begin()
        t1.update_text(nid, "Prefect")
        t1.commit()
        t2 = txns.begin()  # begins after the commit: no conflict
        t2.update_text(nid, "Beeblebrox")
        t2.commit()
        assert list(manager.lookup_string("ArthurBeeblebrox"))

    def test_non_transactional_update_conflicts(self, setup):
        """A plain ``manager.update_text`` is a concurrent writer: the
        transaction must not silently overwrite it (lost update)."""
        manager, txns = setup
        nid = text_nid(manager, "Dent")
        txn = txns.begin()
        txn.update_text(nid, "Beeblebrox")
        manager.update_text(nid, "Prefect")
        with pytest.raises(TransactionConflict):
            txn.commit()
        assert txn.status == "aborted"
        assert list(manager.lookup_string("ArthurPrefect"))
        manager.check_consistency()

    def test_non_transactional_sibling_update_does_not_conflict(self, setup):
        manager, txns = setup
        txn = txns.begin()
        txn.update_text(text_nid(manager, "Dent"), "Prefect")
        manager.update_text(text_nid(manager, "Arthur"), "Ford")
        assert txn.commit() == manager.epoch == txn.commit_epoch
        assert list(manager.lookup_string("FordPrefect"))
        manager.check_consistency()

    def test_database_update_conflicts(self, tmp_path):
        """The same two guarantees through the durable facade."""
        with Database(str(tmp_path / "db"), concurrent=True) as db:
            db.load("doc", PERSON)
            nid = text_nid(db.manager, "Dent")
            txn = TransactionManager(db.manager).begin()
            txn.update_text(nid, "Beeblebrox")
            db.update_text(nid, "Prefect")
            other = TransactionManager(db.manager).begin()
            assert other.read_text(nid) == "Prefect"
            db.update_text(nid, "Slartibartfast")
            assert other.read_text(nid) == "Prefect"
            with pytest.raises(TransactionConflict):
                txn.commit()
            assert list(db.lookup_string("ArthurSlartibartfast"))
            assert db.verify().ok

    @pytest.mark.parametrize("structural", ["insert_xml", "delete_subtree"])
    def test_structural_update_aborts_open_transactions(
        self, setup, structural
    ):
        """Structural splices are not versioned: they invalidate the
        transaction's pin, whatever it wrote."""
        manager, txns = setup
        txn = txns.begin()
        txn.update_text(text_nid(manager, "Dent"), "Prefect")
        if structural == "insert_xml":
            doc = manager.store.document("doc")
            manager.insert_xml(doc.nid[doc.root_element()], "<pet>Eddie</pet>")
        else:
            manager.delete_subtree(text_nid(manager, "4"))
        with pytest.raises(TransactionConflict, match="structural"):
            txn.commit()
        assert txn.status == "aborted"
        assert list(manager.lookup_string("Dent"))
        manager.check_consistency()

    def test_interleaved_commit_order_is_commutative(self, setup):
        """Whichever order sibling transactions commit, the final index
        equals a from-scratch rebuild (commutativity of C)."""
        manager, txns = setup
        t1, t2, t3 = txns.begin(), txns.begin(), txns.begin()
        t1.update_text(text_nid(manager, "Arthur"), "Zaphod")
        t2.update_text(text_nid(manager, "4"), "9")
        t3.update_text(text_nid(manager, "2"), "1")
        for txn in (t3, t1, t2):
            txn.commit()
        assert list(manager.lookup_typed_equal("double", 91.0))
        assert list(manager.lookup_string("Zaphod"))
        manager.check_consistency()


class TestConcurrentThreads:
    def test_threaded_disjoint_commits(self, setup):
        manager, txns = setup
        targets = [
            (text_nid(manager, "Arthur"), "T1"),
            (text_nid(manager, "Dent"), "T2"),
            (text_nid(manager, "4"), "7"),
            (text_nid(manager, "2"), "8"),
        ]
        barrier = threading.Barrier(len(targets))
        errors = []

        def worker(nid, value):
            try:
                txn = txns.begin()
                txn.update_text(nid, value)
                barrier.wait()
                txn.commit()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=t) for t in targets
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert list(manager.lookup_string("T1T2"))
        assert list(manager.lookup_typed_equal("double", 78.0))
        manager.check_consistency()

    def test_threaded_conflicting_commits_one_winner(self, setup):
        manager, txns = setup
        nid = text_nid(manager, "Dent")
        outcomes = []
        barrier = threading.Barrier(4)

        def worker(value):
            txn = txns.begin()
            txn.update_text(nid, value)
            barrier.wait()
            try:
                txn.commit()
                outcomes.append(("ok", value))
            except TransactionConflict:
                outcomes.append(("conflict", value))

        threads = [
            threading.Thread(target=worker, args=(f"v{i}",)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        winners = [value for status, value in outcomes if status == "ok"]
        assert len(winners) == 1
        doc = manager.store.document("doc")
        assert doc.string_value(doc.pre_of(nid)) == winners[0]
        manager.check_consistency()


def test_threaded_increments_lose_no_update(setup):
    """Read-modify-write through transactions, racing each other and a
    plain ``manager.update_text`` writer on a sibling: every committed
    increment survives, so the counter equals the number of commits."""
    manager, txns = setup
    counter, sibling = text_nid(manager, "2"), text_nid(manager, "4")
    manager.update_text(counter, "0")
    deadline = time.monotonic() + 30
    commits = []

    def increment(rounds=20):
        done = 0
        while done < rounds and time.monotonic() < deadline:
            txn = txns.begin()
            txn.update_text(counter, str(int(txn.read_text(counter)) + 1))
            try:
                txn.commit()
            except TransactionConflict:
                continue
            done += 1
        commits.append(done)

    def plain_writer():
        for i in range(60):
            manager.update_text(sibling, str(i % 10))

    threads = [threading.Thread(target=increment) for _ in range(4)]
    threads.append(threading.Thread(target=plain_writer))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert commits == [20] * 4
    doc, pre = manager.store.node(counter)
    assert doc.text_of(pre) == "80"
    manager.check_consistency()


def test_randomized_transaction_soak(setup):
    manager, txns = setup
    rng = random.Random(9)
    doc = manager.store.document("doc")
    texts = [doc.nid[p] for p in range(len(doc)) if doc.kind[p] == TEXT]
    values = ["x", "42", "3.5", "", "Marvin", " 7 "]
    open_txns = []
    for _ in range(300):
        roll = rng.random()
        if roll < 0.4 or not open_txns:
            open_txns.append(txns.begin())
        elif roll < 0.8:
            txn = rng.choice(open_txns)
            if txn.status == "active":
                txn.update_text(rng.choice(texts), rng.choice(values))
        else:
            txn = open_txns.pop(rng.randrange(len(open_txns)))
            if txn.status != "active":
                continue
            try:
                if rng.random() < 0.8:
                    txn.commit()
                else:
                    txn.abort()
            except TransactionConflict:
                pass
    manager.check_consistency()
