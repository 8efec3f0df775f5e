"""Tests for the q-gram substring/regex index (paper's future work)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree.sorted_run import RunSnapshot
from repro.core import IndexManager
from repro.core.substring_index import SubstringIndex, literal_factors
from repro.query import explain, query
from repro.xmldb import TEXT

DOC = (
    "<library>"
    "<book><title>The Hitchhikers Guide to the Galaxy</title>"
    '<isbn code="978-0345391803"/></book>'
    "<book><title>The Restaurant at the End of the Universe</title>"
    '<isbn code="978-0345391810"/></book>'
    "<book><title>Life, the Universe and Everything</title>"
    '<isbn code="978-0345391827"/></book>'
    "<note>a</note>"
    "</library>"
)


@pytest.fixture()
def manager():
    m = IndexManager(typed=(), substring=True)
    m.load("lib", DOC)
    return m


class TestStandalone:
    def test_q_validation(self):
        with pytest.raises(ValueError):
            SubstringIndex(q=1)

    def test_set_and_candidates(self):
        index = SubstringIndex(q=3)
        index.set_entry(1, index.field_of_text("hello world"))
        index.set_entry(2, index.field_of_text("hello there"))
        assert index.candidates("hello").tolist() == [1, 2]
        assert index.candidates("world").tolist() == [1]
        assert index.candidates("nothing").tolist() == []

    def test_short_needle_unsupported(self):
        index = SubstringIndex(q=3)
        index.set_entry(1, index.field_of_text("hello"))
        assert index.candidates("he") is None
        assert not index.supports("he")

    def test_probe_literal(self):
        index = SubstringIndex(q=3)
        assert index.probe_literal("contains", "abc") == "abc"
        assert index.probe_literal("contains", "ab") is None
        assert index.probe_literal("matches", "the .niverse") == "niverse"
        assert index.probe_literal("matches", "ab.cd") is None

    def test_delta_update(self):
        index = SubstringIndex(q=3)
        index.set_entry(1, index.field_of_text("hello"))
        index.set_entry(1, index.field_of_text("goodbye"))
        assert index.candidates("hello").tolist() == []
        assert index.candidates("goodbye").tolist() == [1]

    def test_remove_entry(self):
        index = SubstringIndex(q=3)
        index.set_entry(1, index.field_of_text("hello"))
        index.remove_entry(1)
        assert index.candidates("hello").tolist() == []
        assert len(index) == 0
        assert index.byte_size() == 0

    def test_short_text_tracked(self):
        index = SubstringIndex(q=3)
        index.set_entry(1, index.field_of_text("ab"))
        assert len(index) == 0  # no grams
        index.set_entry(1, index.field_of_text(""))
        index.remove_entry(1)

    def test_no_false_negatives_on_leaves(self):
        index = SubstringIndex(q=3)
        texts = {i: f"value number {i} of some {i % 7} kind" for i in range(50)}
        for nid, text in texts.items():
            index.set_entry(nid, index.field_of_text(text))
        needle = "number 4"
        expected = {nid for nid, text in texts.items() if needle in text}
        assert expected <= set(index.candidates(needle).tolist())

    def test_byte_size_grows(self):
        index = SubstringIndex(q=3)
        index.set_entry(1, index.field_of_text("abcdef"))
        small = index.byte_size()
        index.set_entry(2, index.field_of_text("ghijklmnop"))
        assert index.byte_size() > small

    def test_delta_folds_in_step_with_the_stored_fields(self):
        """The drift rule counts fields on both sides: each leaf here
        holds a dozen entries, so sizing the drift by entries would
        never fold."""
        index = SubstringIndex(q=3)
        for nid in range(1000):
            index.set_entry(nid, index.field_of_text(f"leaf number {nid}"))
        assert index.folded_at > 0
        delta = index.tree.snapshot()
        assert len(delta.dead) + len(delta.ins_nids) <= len(index.tree) // 5
        index.tree.check_invariants()

    def test_gram_distribution(self):
        index = SubstringIndex(q=3)
        index.set_entry(1, index.field_of_text("aaaa"))  # single distinct gram "aaa"
        assert index.gram_distribution() == {1: 1}


class TestLiteralFactors:
    @pytest.mark.parametrize(
        "pattern,expected",
        [
            ("hello", ["hello"]),
            ("hello.*world", ["hello", "world"]),
            ("he(llo|y)", ["he"]),
            ("colou?r", ["colo", "r"]),
            ("a|b", []),
            (r"item\d+", ["item"]),
            (r"\(exact\)", ["(exact)"]),
            ("[abc]def", ["def"]),
            ("ab{2,3}c", ["a", "c"]),
            ("^start.end$", ["start", "end"]),
        ],
    )
    def test_extraction(self, pattern, expected):
        assert literal_factors(pattern) == expected

    @given(st.text(alphabet="abcdefgh ", min_size=0, max_size=20))
    @settings(max_examples=100)
    def test_plain_literals_are_their_own_factor(self, text):
        factors = literal_factors(text)
        assert factors == ([text] if text else [])

    @given(
        st.text(alphabet="abcdef", min_size=1, max_size=10),
        st.text(alphabet="abcdef .*+?", min_size=0, max_size=15),
    )
    @settings(max_examples=150)
    def test_factors_occur_in_every_match(self, probe, pattern):
        """Soundness: if the regex matches a string, every extracted
        factor must literally occur in it."""
        import re

        try:
            compiled = re.compile(pattern)
        except re.error:
            return
        match = compiled.search(probe)
        if match is None:
            return
        for factor in literal_factors(pattern):
            assert factor in probe


class TestManagerIntegration:
    def test_lookup_contains(self, manager):
        hits = list(manager.lookup_contains("Universe"))
        assert len(hits) == 2
        for nid in hits:
            doc, pre = manager.store.node(nid)
            assert "Universe" in doc.text_of(pre)

    def test_contains_attribute_values(self, manager):
        hits = list(manager.lookup_contains("0345391810"))
        assert len(hits) == 1

    def test_short_needle_falls_back_to_scan(self, manager):
        hits = list(manager.lookup_contains("a"))
        # Scan fallback still finds everything, including 1-char leaf.
        doc = manager.store.document("lib")
        expected = sum(
            1
            for p in range(len(doc))
            if doc.text_id[p] >= 0 and "a" in doc.text_of(p)
        )
        assert len(hits) == expected

    def test_lookup_regex(self, manager):
        hits = list(manager.lookup_regex(r"Guide to the .alaxy"))
        assert len(hits) == 1

    def test_regex_without_factor_scans(self, manager):
        hits = list(manager.lookup_regex(r"[0-9]+-[0-9]+"))
        assert len(hits) == 3  # the three ISBN attributes

    def test_follows_text_updates(self, manager):
        doc = manager.store.document("lib")
        nid = next(
            doc.nid[p]
            for p in range(len(doc))
            if doc.kind[p] == TEXT and "Restaurant" in doc.text_of(p)
        )
        manager.update_text(nid, "So Long, and Thanks for All the Fish")
        assert list(manager.lookup_contains("Restaurant")) == []
        assert len(list(manager.lookup_contains("Thanks for All"))) == 1

    def test_follows_structural_updates(self, manager):
        doc = manager.store.document("lib")
        root_nid = doc.nid[doc.root_element()]
        manager.insert_xml(root_nid, "<book><title>Mostly Harmless</title></book>")
        assert len(list(manager.lookup_contains("Mostly Harmless"))) == 1
        book = next(
            doc.nid[p]
            for p in range(len(doc))
            if doc.kind[p] == 1 and doc.name_of(p) == "note"
        )
        manager.delete_subtree(book)

    def test_disabled_by_default(self):
        m = IndexManager(typed=())
        m.load("lib", DOC)
        assert m.substring_index is None
        # Lookup still works via scan fallback.
        assert len(list(m.lookup_contains("Universe"))) == 2

    def test_index_sizes_include_substring(self, manager):
        assert manager.index_sizes()["substring"] > 0


class TestQueryIntegration:
    def test_contains_query(self, manager):
        q = '//book[contains(title/text(), "Universe")]'
        indexed = query(manager, q)
        naive = query(manager, q, use_indexes=False)
        assert indexed == naive
        assert len(indexed) == 2
        assert explain(manager, q) == "index(substring)"

    def test_contains_on_attribute(self, manager):
        q = '//book[contains(isbn/@code, "391827")]'
        assert query(manager, q) == query(manager, q, use_indexes=False)
        assert len(query(manager, q)) == 1

    def test_matches_query(self, manager):
        q = '//book[matches(title/text(), "the .niverse")]'
        indexed = query(manager, q)
        assert indexed == query(manager, q, use_indexes=False)
        assert len(indexed) == 2
        assert explain(manager, q) == "index(substring)"

    def test_planning_a_matches_query_probes_no_index(
        self, manager, monkeypatch
    ):
        """Which literal the index would probe is string work; the plan
        is chosen without building a candidate set."""
        probes = []

        def counting(method):
            def probe(self, *args, **kwargs):
                probes.append(method.__qualname__)
                return method(self, *args, **kwargs)
            return probe

        for owner, name in (
            (SubstringIndex, "candidates"),
            (RunSnapshot, "nids_between"),
        ):
            monkeypatch.setattr(
                owner, name, counting(getattr(owner, name))
            )
        q = '//book[matches(title/text(), "the .niverse")]'
        assert explain(manager, q) == "index(substring)"
        assert probes == []
        assert len(query(manager, q)) == 2
        assert "SubstringIndex.candidates" in probes

    def test_element_operand_scans(self, manager):
        q = '//book[contains(title, "Universe")]'
        assert explain(manager, q) == "scan"
        assert len(query(manager, q)) == 2

    def test_short_needle_scans(self, manager):
        q = '//book[contains(title/text(), "U")]'
        assert explain(manager, q) == "scan"
        assert query(manager, q) == query(manager, q, use_indexes=False)

    def test_boundary_spanning_match_found_by_element_scan(self):
        """A needle spanning two leaves is only visible at element
        level — exactly why the planner refuses leaf acceleration
        for element operands."""
        m = IndexManager(typed=(), substring=True)
        m.load("doc", "<r><x><a>Arthur</a><b>Dent</b></x></r>")
        q = '//x[contains(., "urDe")]'
        assert explain(m, q) == "scan"
        assert len(query(m, q)) == 1
