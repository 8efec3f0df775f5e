"""Bulk document unload and deterministic substring lookups.

Unload drops a document's entries with one ``remove_entries`` pass per
index (not one tree descent per node); ``lookup_contains`` emits index
candidates in sorted nid order, and both ``lookup_contains`` and
``lookup_regex`` answer exactly what a brute-force ``text_of`` scan of
every value leaf does.
"""

import re

import pytest

from repro.core import IndexManager
from repro.workloads import DATASETS
from repro.xmldb.document import ATTR, TEXT

DOC_A = (
    "<book><title>The Hitchhikers Guide</title>"
    "<price>5.99</price><isbn code='0345391802'>extant</isbn></book>"
)
DOC_B = (
    "<book><title>Mostly Harmless</title>"
    "<price>7.50</price><isbn code='0345418778'>extant</isbn></book>"
)


def _brute_force(manager, keep):
    """Sorted nids of every TEXT/ATTR leaf whose ``text_of`` passes."""
    return sorted(
        doc.nid[pre]
        for doc in manager.store.documents.values()
        for pre in range(len(doc))
        if doc.kind[pre] in (TEXT, ATTR) and keep(doc.text_of(pre))
    )


def _assert_matches_brute_force(manager, needle):
    assert list(manager.lookup_contains(needle)) == _brute_force(
        manager, lambda text: needle in text)
    pattern = re.escape(needle)
    assert list(manager.lookup_regex(pattern)) == _brute_force(
        manager, lambda text: re.search(pattern, text) is not None)


@pytest.fixture()
def manager():
    m = IndexManager(substring=True)
    m.load("a", DOC_A)
    m.load("b", DOC_B)
    return m


class TestUnload:
    def test_other_documents_survive(self, manager):
        manager.unload("a")
        assert list(manager.lookup_string("Mostly Harmless"))
        assert not list(manager.lookup_string("The Hitchhikers Guide"))
        manager.check_consistency()

    def test_all_entries_dropped(self, manager):
        doc_nids = set(manager.store.document("a").nid)
        manager.unload("a")
        assert not doc_nids & set(manager.string_index.hash_of)
        typed = manager.typed_indexes["double"]
        assert not doc_nids & set(typed.fragment_of_node)
        assert not doc_nids & {
            nid for (_v, nid) in manager.string_index.tree.keys()
        }

    def test_typed_lookups_after_unload(self, manager):
        manager.unload("b")
        values = [v for v, _nid in
                  manager.lookup_typed_range("double", 0.0, 100.0)]
        assert values == [5.99, 5.99]  # text node + <price> element

    def test_substring_entries_dropped(self, manager):
        manager.unload("a")
        hits = list(manager.lookup_contains("0345391802"))
        assert hits == []
        assert len(list(manager.lookup_contains("0345418778"))) == 1

    def test_unload_everything(self, manager):
        manager.unload("a")
        manager.unload("b")
        assert len(manager.string_index.hash_of) == 0
        assert len(manager.string_index.tree) == 0
        assert manager.typed_indexes["double"].castable_count() == 0
        assert manager.store.documents == {}

    def test_reload_after_unload(self, manager):
        manager.unload("a")
        manager.load("a", DOC_A)
        assert list(manager.lookup_string("The Hitchhikers Guide"))
        manager.check_consistency()

    def test_unload_large_document_consistent(self):
        m = IndexManager()
        m.load("XMark1", DATASETS["XMark1"].build(0.02))
        m.load("DBLP", DATASETS["DBLP"].build(0.02))
        m.unload("XMark1")
        m.check_consistency()
        fresh = IndexManager()
        fresh.load("DBLP", DATASETS["DBLP"].build(0.02))
        # nids are store-global, so compare the hash multiset only.
        assert (
            sorted(h for h, _nid in m.string_index.tree.keys())
            == sorted(h for h, _nid in fresh.string_index.tree.keys())
        )


class TestLookupContains:
    def test_results_sorted_and_repeatable(self, manager):
        first = list(manager.lookup_contains("extant"))
        assert first == sorted(first)
        assert list(manager.lookup_contains("extant")) == first

    def test_short_needle_scan_matches_index_path(self, manager):
        """Needles under q fall back to the cached leaf scan; both
        paths see the same leaves."""
        scan_hits = list(manager.lookup_contains("5."))  # len < q
        index_hits = list(manager.lookup_contains("5.99"))
        assert set(index_hits) <= set(scan_hits)
        assert scan_hits == sorted(scan_hits)

    def test_leaf_cache_populated_and_reused(self, manager):
        """Both scan needles (under q) and index needles, asked twice:
        every answer equals the brute-force scan."""
        for needle in ("x", "y", "5.", "Guide", "x", "Guide"):
            _assert_matches_brute_force(manager, needle)

    def test_cache_invalidated_by_structural_change(self, manager):
        _assert_matches_brute_force(manager, "x")
        doc = manager.store.document("a")
        manager.insert_xml(doc.nid[0], "<extra>fresh text</extra>")
        assert len(list(manager.lookup_contains("fresh text"))) == 1
        for needle in ("x", "fresh", "e"):
            _assert_matches_brute_force(manager, needle)

    def test_cache_invalidated_by_unload(self, manager):
        _assert_matches_brute_force(manager, "zz")  # short needle: scan
        manager.unload("a")
        assert list(manager.lookup_contains("Hitchhikers")) == []
        for needle in ("zz", "e", "extant", "Hitchhikers"):
            _assert_matches_brute_force(manager, needle)

    def test_no_substring_index_uses_scan(self):
        m = IndexManager()  # no substring index
        m.load("a", DOC_A)
        m.load("b", DOC_B)
        hits = list(m.lookup_contains("Hitchhikers"))
        assert len(hits) == 1
        for needle in ("Hitchhikers", "x", "0345", "e"):
            _assert_matches_brute_force(m, needle)

    def test_regex_results_sorted(self, manager):
        hits = list(manager.lookup_regex(r"03454\d+"))
        assert hits == sorted(hits)
        assert len(hits) == 1
