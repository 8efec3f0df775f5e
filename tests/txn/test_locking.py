"""Tests for the ancestor-locking baseline transaction manager."""

import threading
import time

import pytest

from repro.core import IndexManager
from repro.errors import TransactionStateError
from repro.bench.ablations import LockingTransactionManager
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
    return index_manager, LockingTransactionManager(index_manager)


def text_nid(index_manager, content):
    doc = index_manager.store.document("doc")
    for pre in range(len(doc)):
        if doc.kind[pre] == TEXT and doc.text_of(pre) == content:
            return doc.nid[pre]
    raise AssertionError(content)


class TestBasics:
    def test_commit(self, setup):
        manager, txns = setup
        with txns.begin() as txn:
            txn.update_text(text_nid(manager, "Dent"), "Prefect")
        assert list(manager.lookup_string("ArthurPrefect"))
        manager.check_consistency()

    def test_abort_restores(self, setup):
        manager, txns = setup
        txn = txns.begin()
        txn.update_text(text_nid(manager, "Dent"), "Prefect")
        txn.abort()
        assert list(manager.lookup_string("ArthurDent"))
        assert not list(manager.lookup_string("ArthurPrefect"))
        manager.check_consistency()

    def test_use_after_commit(self, setup):
        manager, txns = setup
        txn = txns.begin()
        txn.commit()
        with pytest.raises(TransactionStateError):
            txn.update_text(text_nid(manager, "Dent"), "x")

    def test_locks_released_after_commit(self, setup):
        manager, txns = setup
        nid = text_nid(manager, "Dent")
        with txns.begin() as txn:
            txn.update_text(nid, "A")
        with txns.begin() as txn:  # would deadlock if locks leaked
            txn.update_text(nid, "B")
        doc = manager.store.document("doc")
        assert doc.string_value(doc.pre_of(nid)) == "B"

    def test_lock_statistics_recorded(self, setup):
        manager, txns = setup
        with txns.begin() as txn:
            txn.update_text(text_nid(manager, "Dent"), "X")
        # family text + <family> + <name> + <person> + doc node
        assert txns.lock_acquisitions == 5


class TestContention:
    def test_sibling_writers_block_on_shared_ancestors(self, setup):
        """The root bottleneck: disjoint sibling updates still contend,
        unlike the optimistic manager."""
        manager, txns = setup
        first = text_nid(manager, "Arthur")
        family = text_nid(manager, "Dent")
        order = []
        t1_has_locks = threading.Event()
        release_t1 = threading.Event()

        def holder():
            txn = txns.begin()
            txn.update_text(first, "Ford")
            t1_has_locks.set()
            release_t1.wait()
            order.append("t1-commit")
            txn.commit()

        def contender():
            t1_has_locks.wait()
            txn = txns.begin()
            txn.update_text(family, "Prefect")  # blocks on shared locks
            order.append("t2-acquired")
            txn.commit()

        threads = [
            threading.Thread(target=holder),
            threading.Thread(target=contender),
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.15)  # contender must be stuck retrying
        assert "t2-acquired" not in order
        release_t1.set()
        for thread in threads:
            thread.join()
        assert order == ["t1-commit", "t2-acquired"]
        assert txns.lock_retries > 0
        assert list(manager.lookup_string("FordPrefect"))
        manager.check_consistency()

    def test_optimistic_siblings_do_not_block(self):
        """Control: the paper's optimistic manager lets the same pair
        proceed concurrently."""
        index_manager = IndexManager(typed=("double",))
        index_manager.load("doc", PERSON)
        txns = TransactionManager(index_manager)
        first = text_nid(index_manager, "Arthur")
        family = text_nid(index_manager, "Dent")
        t1 = txns.begin()
        t2 = txns.begin()
        t1.update_text(first, "Ford")
        t2.update_text(family, "Prefect")
        # Neither blocks; both commit in either order.
        t2.commit()
        t1.commit()
        assert list(index_manager.lookup_string("FordPrefect"))

    def test_many_threads_serialize_but_complete(self, setup):
        manager, txns = setup
        targets = [
            (text_nid(manager, "Arthur"), "A"),
            (text_nid(manager, "Dent"), "B"),
            (text_nid(manager, "4"), "7"),
            (text_nid(manager, "2"), "8"),
        ]
        errors = []

        def worker(nid, value):
            try:
                with txns.begin() as txn:
                    txn.update_text(nid, value)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=t) for t in targets]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert list(manager.lookup_string("AB"))
        manager.check_consistency()
