"""Tests for StringIndex, TypedIndex and the Figure-7 builder."""

import pytest

from repro.core import IndexManager, hash_string
from repro.xmldb import ATTR, ELEM, TEXT

PERSON = (
    "<person>"
    "<name><first>Arthur</first><family>Dent</family></name>"
    "<birthday>1966-09-26</birthday>"
    "<age><decades>4</decades>2<years/></age>"
    "<weight><kilos>78</kilos>.<grams>230</grams></weight>"
    "</person>"
)


@pytest.fixture()
def manager():
    m = IndexManager(typed=("double", "dateTime"))
    m.load("person", PERSON)
    return m


def kinds_of(manager, nids):
    result = []
    for nid in nids:
        doc, pre = manager.store.node(nid)
        result.append(doc.kind[pre])
    return result


def names_of(manager, nids):
    result = []
    for nid in nids:
        doc, pre = manager.store.node(nid)
        if doc.kind[pre] == ELEM:
            result.append(doc.name_of(pre))
    return result


class TestStringLookups:
    def test_text_value(self, manager):
        hits = list(manager.lookup_string("Arthur"))
        assert sorted(kinds_of(manager, hits)) == [ELEM, TEXT]
        assert names_of(manager, hits) == ["first"]

    def test_element_concatenated_value(self, manager):
        """The paper's fn:data(name)="ArthurDent" example."""
        hits = list(manager.lookup_string("ArthurDent"))
        assert names_of(manager, hits) == ["name"]

    def test_mixed_content_value(self, manager):
        hits = list(manager.lookup_string("42"))
        assert names_of(manager, hits) == ["age"]

    def test_document_value_includes_root(self, manager):
        value = "ArthurDent1966-09-264278.230"
        hits = list(manager.lookup_string(value))
        assert len(hits) == 2  # document node + <person>

    def test_no_hits(self, manager):
        assert list(manager.lookup_string("Zaphod")) == []

    def test_every_node_indexed(self, manager):
        doc = manager.store.document("person")
        indexed = set(manager.string_index.hash_of)
        expected = {
            doc.nid[p]
            for p in range(len(doc))
            if doc.kind[p] not in ()  # comments/PIs absent here
        }
        assert indexed == expected

    def test_hash_matches_string_value(self, manager):
        doc = manager.store.document("person")
        for pre in range(len(doc)):
            nid = doc.nid[pre]
            assert manager.string_index.hash_of[nid] == hash_string(
                doc.string_value(pre)
            )

    def test_verification_filters_collisions(self):
        manager = IndexManager(typed=())
        # Two values engineered to share a hash (27-period swap).
        a = "u" + "x" * 26 + "v"
        b = "v" + "x" * 26 + "u"
        assert hash_string(a) == hash_string(b)
        manager.load("collide", f"<r><p>{a}</p><q>{b}</q></r>")
        hits = list(manager.lookup_string(a))
        doc = manager.store.document("collide")
        assert all(
            doc.string_value(doc.pre_of(nid)) == a for nid in hits
        )
        unverified = list(manager.string_index.candidates(a))
        assert len(unverified) > len(hits)


class TestTypedLookups:
    def test_equality_on_text_and_elements(self, manager):
        hits = list(manager.lookup_typed_equal("double", 42.0))
        assert names_of(manager, hits) == ["age"]

    def test_mixed_content_double(self, manager):
        hits = list(manager.lookup_typed_equal("double", 78.230))
        assert names_of(manager, hits) == ["weight"]

    def test_range(self, manager):
        pairs = list(manager.lookup_typed_range("double", 40.0, 80.0))
        values = sorted(v for v, _ in pairs)
        assert values == [42.0, 78.0, 78.0, 78.23]

    def test_range_bounds(self, manager):
        assert not list(
            manager.lookup_typed_range("double", 42.0, 42.0, include_low=False)
        )
        only_42 = list(manager.lookup_typed_range("double", 42.0, 42.0))
        assert [v for v, _ in only_42] == [42.0]

    def test_open_ranges(self, manager):
        everything = list(manager.lookup_typed_range("double"))
        # texts 4,2,78,230 + elements decades,age,kilos,grams,weight
        assert len(everything) == 9
        high = list(manager.lookup_typed_range("double", low=100.0))
        assert all(v >= 100.0 for v, _ in high)

    def test_datetime_index(self, manager):
        plugin_value = manager.typed_index("dateTime").plugin.value_of_text(
            "1966-09-26"
        )
        assert plugin_value is None  # date, not dateTime
        hits = list(
            manager.lookup_typed_equal(
                "dateTime",
                manager.typed_index("dateTime").plugin.value_of_text(
                    "1966-09-26T00:00:00"
                ),
            )
        )
        assert hits == []  # no dateTime values in the person doc

    def test_rejected_nodes_store_nothing(self, manager):
        index = manager.typed_index("double")
        doc = manager.store.document("person")
        arthur = next(
            doc.nid[p]
            for p in range(len(doc))
            if doc.kind[p] == TEXT and doc.text_of(p) == "Arthur"
        )
        assert arthur not in index.fragment_of_node

    def test_potential_but_not_castable(self, manager):
        index = manager.typed_index("double")
        doc = manager.store.document("person")
        dot = next(
            doc.nid[p]
            for p in range(len(doc))
            if doc.kind[p] == TEXT and doc.text_of(p) == "."
        )
        assert dot in index.fragment_of_node
        assert index.value_of(dot) is None

    def test_counts(self, manager):
        index = manager.typed_index("double")
        assert index.castable_count() < index.potential_count()
        assert index.castable_count() == len(list(index.lookup_range()))


class TestAttributes:
    @pytest.fixture()
    def attr_manager(self):
        m = IndexManager()
        m.load("items", '<items><item price="19.90" name="towel"/></items>')
        return m

    def test_attribute_string_indexed(self, attr_manager):
        hits = list(attr_manager.lookup_string("towel"))
        assert kinds_of(attr_manager, hits) == [ATTR]

    def test_attribute_typed_indexed(self, attr_manager):
        hits = list(attr_manager.lookup_typed_equal("double", 19.90))
        assert kinds_of(attr_manager, hits) == [ATTR]

    def test_attribute_not_in_element_value(self, attr_manager):
        # <item> has no text descendants: string value is "".
        assert not list(attr_manager.lookup_string("towel19.90"))
        hits = list(attr_manager.lookup_string(""))
        assert len(hits) >= 2  # item, items, document


class TestManagerApi:
    def test_load_multiple_documents(self, manager):
        manager.load("more", "<r><v>42</v></r>")
        hits = list(manager.lookup_typed_equal("double", 42.0))
        # age + all four nodes of the new doc (doc, <r>, <v>, text).
        assert len(hits) == 5

    def test_unload_removes_entries(self, manager):
        manager.load("more", "<r><v>42</v></r>")
        manager.unload("more")
        hits = list(manager.lookup_typed_equal("double", 42.0))
        assert names_of(manager, hits) == ["age"]

    def test_add_typed_index_backfills(self, manager):
        index = manager.add_typed_index("integer")
        assert list(index.lookup_equal(42)) == list(
            manager.lookup_typed_equal("integer", 42)
        )
        assert len(list(index.lookup_equal(42))) == 1

    def test_duplicate_typed_index_rejected(self, manager):
        from repro.errors import IndexError_

        with pytest.raises(IndexError_):
            manager.add_typed_index("double")

    def test_missing_typed_index(self, manager):
        from repro.errors import IndexError_

        with pytest.raises(IndexError_):
            manager.typed_index("boolean")

    def test_string_index_disabled(self):
        m = IndexManager(string=False, typed=("double",))
        m.load("d", "<a>42</a>")
        from repro.errors import IndexError_

        with pytest.raises(IndexError_):
            list(m.lookup_string("42"))

    def test_index_sizes_present(self, manager):
        sizes = manager.index_sizes()
        assert set(sizes) == {"string", "double", "dateTime"}
        assert sizes["string"] > 0
        assert sizes["double"] > 0
        # Few dateTime-shaped values: far smaller than the string index.
        assert sizes["dateTime"] < sizes["string"]

    def test_consistency_checker_passes(self, manager):
        manager.check_consistency()


class TestTopValues:
    def test_largest_and_smallest(self, manager):
        top = manager.lookup_typed_top("double", 3)
        values = [v for v, _ in top]
        assert values == sorted(values, reverse=True)
        assert values[0] == 230.0
        bottom = manager.lookup_typed_top("double", 2, largest=False)
        assert [v for v, _ in bottom] == [2.0, 4.0]

    def test_k_larger_than_index(self, manager):
        index = manager.typed_index("double")
        assert len(manager.lookup_typed_top("double", 10**6)) == (
            index.castable_count()
        )

    def test_zero_k(self, manager):
        assert manager.lookup_typed_top("double", 0) == []

    def test_follows_updates(self, manager):
        m = IndexManager(typed=("double",))
        m.load("d", "<r><v>1</v><v>2</v></r>")
        doc = m.store.document("d")
        nid = next(
            doc.nid[p]
            for p in range(len(doc))
            if doc.kind[p] == TEXT and doc.text_of(p) == "1"
        )
        m.update_text(nid, "99")
        # <r>'s own concatenated value "99"+"2" = 992 now tops the list.
        assert m.lookup_typed_top("double", 1)[0][0] == 992.0
        assert 99.0 in [v for v, _ in m.lookup_typed_top("double", 4)]
