"""Tests for the first-principles database verifier."""

import pytest

from repro.core import IndexManager
from repro.core.hashing import hash_string
from repro.core.verify import verify_database
from repro.workloads import generate_xmark
from repro.xmldb import TEXT


@pytest.fixture()
def manager():
    m = IndexManager(typed=("double",), substring=True)
    m.load("xmark", generate_xmark(0.3))
    return m


class TestCleanDatabase:
    def test_fresh_build_verifies(self, manager):
        report = verify_database(manager)
        assert report.ok, report.summary()
        assert report.nodes_checked > 100
        assert report.entries_checked > report.nodes_checked

    def test_after_updates(self, manager):
        doc = manager.store.document("xmark")
        texts = [doc.nid[p] for p in range(len(doc)) if doc.kind[p] == TEXT]
        for nid in texts[:20]:
            manager.update_text(nid, "7.5")
        root = doc.nid[doc.root_element()]
        manager.insert_xml(root, "<extra>42</extra>")
        report = verify_database(manager)
        assert report.ok, report.summary()

    def test_summary_format(self, manager):
        report = verify_database(manager)
        assert "verification: OK" in report.summary()


class TestCorruptionDetection:
    def test_detects_wrong_hash(self, manager):
        nid = next(iter(manager.string_index.hash_of))
        manager.string_index.hash_of[nid] ^= 0xDEADBEEF
        report = verify_database(manager)
        assert not report.ok
        assert any("hash" in p for p in report.problems)

    def test_detects_missing_hash_entry(self, manager):
        nid = next(iter(manager.string_index.hash_of))
        del manager.string_index.hash_of[nid]
        report = verify_database(manager)
        assert any("missing hash entry" in p for p in report.problems)

    def test_detects_wrong_typed_state(self, manager):
        index = manager.typed_index("double")
        nid = next(iter(index.fragment_of_node))
        del index.fragment_of_node[nid]
        report = verify_database(manager)
        assert any("state" in p for p in report.problems)

    def test_detects_tree_orphans(self, manager):
        manager.string_index.tree.insert((12345, 10**9))
        report = verify_database(manager)
        assert any("orphan" in p for p in report.problems)

    def test_detects_structure_damage(self, manager):
        doc = manager.store.document("xmark")
        doc.size[doc.root_element()] -= 1  # corrupt the pre/size plane
        report = verify_database(manager)
        assert not report.ok

    def test_detects_stale_substring_postings(self, manager):
        doc = manager.store.document("xmark")
        text_pre = next(
            p
            for p in range(len(doc))
            if doc.kind[p] == TEXT and len(doc.text_of(p)) >= 3
        )
        # Bypass the manager: mutate the document without maintenance.
        doc.texts[doc.text_id[text_pre]] = "zzzzzzzz"
        report = verify_database(manager)
        assert not report.ok
        assert any("q-gram" in p for p in report.problems)

    def test_detects_a_missing_non_first_gram_entry(self, manager):
        index = manager.substring_index
        doc = manager.store.document("xmark")
        pre = next(
            p
            for p in range(len(doc))
            if doc.kind[p] == TEXT and len(set(doc.text_of(p))) > 3
        )
        nid, text = doc.nid[pre], doc.text_of(pre)
        first = hash_string(text[: index.q])
        grams = index.keys_of(index.field_of(nid))
        gram = next(g for g in sorted(grams) if g != first)
        # Injected bug: a posting other than the leaf's first gram's
        # is lost (a check of the first gram alone cannot see it).
        assert index.tree.delete((gram, nid))
        report = verify_database(manager)
        assert not report.ok
        assert report.problems == [f"substring tree lacks an entry of nid {nid}"]
