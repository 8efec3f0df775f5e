"""Tests for MVCC snapshot reads in the optimistic transaction manager."""

import pytest

from repro.core import IndexManager
from repro.errors import TransactionConflict
from repro.txn import TransactionManager
from repro.xmldb import TEXT

DOC = "<r><a>one</a><b>two</b><c>three</c></r>"


@pytest.fixture()
def setup():
    manager = IndexManager(typed=())
    manager.load("doc", DOC)
    return manager, TransactionManager(manager)


def text_nid(manager, content):
    doc = manager.store.document("doc")
    for pre in range(len(doc)):
        if doc.kind[pre] == TEXT and doc.text_of(pre) == content:
            return doc.nid[pre]
    raise AssertionError(content)


class TestSnapshotReads:
    def test_repeatable_read_across_concurrent_commit(self, setup):
        manager, txns = setup
        nid = text_nid(manager, "one")
        reader = txns.begin()
        assert reader.read_text(nid) == "one"
        writer = txns.begin()
        writer.update_text(nid, "ONE")
        writer.commit()
        # The open reader still sees its snapshot.
        assert reader.read_text(nid) == "one"
        # A fresh transaction sees the committed value.
        assert txns.begin().read_text(nid) == "ONE"

    def test_snapshot_survives_multiple_commits(self, setup):
        manager, txns = setup
        nid = text_nid(manager, "one")
        reader = txns.begin()
        for value in ("v1", "v2", "v3"):
            writer = txns.begin()
            writer.update_text(nid, value)
            writer.commit()
        assert reader.read_text(nid) == "one"

    def test_intermediate_snapshot(self, setup):
        manager, txns = setup
        nid = text_nid(manager, "one")
        first = txns.begin()
        first.update_text(nid, "v1")
        first.commit()
        mid_reader = txns.begin()  # snapshot after v1
        second = txns.begin()
        second.update_text(nid, "v2")
        second.commit()
        assert mid_reader.read_text(nid) == "v1"

    def test_own_writes_shadow_snapshot(self, setup):
        manager, txns = setup
        nid = text_nid(manager, "one")
        txn = txns.begin()
        txn.update_text(nid, "mine")
        assert txn.read_text(nid) == "mine"

    def test_unwritten_nodes_read_current(self, setup):
        manager, txns = setup
        reader = txns.begin()
        assert reader.read_text(text_nid(manager, "two")) == "two"

    def test_history_pruned_when_no_readers(self, setup):
        manager, txns = setup
        nid = text_nid(manager, "one")
        for value in ("v1", "v2", "v3", "v4"):
            writer = txns.begin()
            writer.update_text(nid, value)
            writer.commit()
        # With no open transactions, the overlay versions are garbage.
        assert len(manager.store.document("doc").text_overlay) == 0

    def test_history_retained_while_reader_open(self, setup):
        manager, txns = setup
        overlay = manager.store.document("doc").text_overlay
        nid = text_nid(manager, "one")
        reader = txns.begin()
        for value in ("v1", "v2"):
            writer = txns.begin()
            writer.update_text(nid, value)
            writer.commit()
        # Every version above the reader's pin is kept for it.
        assert len(overlay) == 2
        assert reader.read_text(nid) == "one"
        reader.abort()
        # Closing a pin prunes nothing: the versions it held go at the
        # next commit's publish.
        assert len(overlay) == 2
        writer = txns.begin()
        writer.update_text(nid, "v3")
        writer.commit()
        assert len(overlay) == 0

    def test_aborted_writer_leaves_no_versions(self, setup):
        manager, txns = setup
        nid = text_nid(manager, "one")
        reader = txns.begin()
        writer = txns.begin()
        writer.update_text(nid, "junk")
        writer.abort()
        assert len(manager.store.document("doc").text_overlay) == 0
        assert reader.read_text(nid) == "one"
        assert txns.begin().read_text(nid) == "one"

    def test_repeatable_read_across_non_transactional_update(self, setup):
        """The transaction rides the engine's epochs, so a plain
        ``manager.update_text`` is a concurrent writer like any other."""
        manager, txns = setup
        nid = text_nid(manager, "one")
        reader = txns.begin()
        assert reader.read_text(nid) == "one"
        manager.update_text(nid, "ONE")
        assert reader.read_text(nid) == "one"
        assert txns.begin().read_text(nid) == "ONE"

    def test_structural_update_invalidates_reads(self, setup):
        manager, txns = setup
        nid = text_nid(manager, "one")
        reader = txns.begin()
        manager.delete_subtree(text_nid(manager, "three"))
        with pytest.raises(TransactionConflict, match="structural"):
            reader.read_text(nid)
        assert reader.status == "aborted"

    def test_write_skew_is_allowed_but_documented(self, setup):
        """This is snapshot-read + first-committer-wins on write sets,
        not full serializability: two txns may each read what the other
        writes and both commit (classic write skew)."""
        manager, txns = setup
        a = text_nid(manager, "one")
        b = text_nid(manager, "two")
        t1, t2 = txns.begin(), txns.begin()
        t1_read = t1.read_text(b)
        t2_read = t2.read_text(a)
        t1.update_text(a, t1_read.upper())
        t2.update_text(b, t2_read.upper())
        t1.commit()
        t2.commit()  # disjoint write sets: no conflict
        manager.check_consistency()
