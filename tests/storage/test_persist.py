"""Tests for the on-disk persistence layer."""

import json
import pathlib

import pytest

from repro.core import IndexManager
from repro.errors import ReproError
from repro.storage import FormatError, load_manager, save_manager
from repro.storage.format import decode_varint, encode_varint
from repro.workloads import generate_xmark
from repro.xmldb import TEXT

PERSON = (
    '<person id="p1">'
    "<name><first>Arthur</first><family>Dent</family></name>"
    "<age><decades>4</decades>2<years/></age>"
    "<weight><kilos>78</kilos>.<grams>230</grams></weight>"
    "</person>"
)


class TestVarint:
    @pytest.mark.parametrize(
        "value", [0, 1, 127, 128, 300, 2**20, 2**64, 10**30]
    )
    def test_roundtrip(self, value):
        encoded = encode_varint(value)
        decoded, offset = decode_varint(encoded, 0)
        assert decoded == value and offset == len(encoded)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_varint(-1)

    def test_truncated(self):
        with pytest.raises(FormatError):
            decode_varint(b"\x80", 0)


def _reloaded(manager: IndexManager, path) -> IndexManager:
    save_manager(manager, str(path))
    return load_manager(str(path))


class TestStoreRoundtrip:
    def test_single_document(self, tmp_path):
        manager = IndexManager()
        doc = manager.load("person", PERSON)
        again = _reloaded(manager, tmp_path / "db").store.document("person")
        assert again.serialize() == doc.serialize()
        assert again.kind == doc.kind
        assert again.size == doc.size
        assert again.level == doc.level
        assert again.nid == doc.nid
        assert again.parent_nid == doc.parent_nid
        assert again.texts == doc.texts
        assert again.source_bytes == doc.source_bytes
        again.check_invariants()

    def test_multiple_documents_and_nid_counter(self, tmp_path):
        manager = IndexManager()
        manager.load("a", "<x>1</x>")
        manager.load("b", "<y>2</y>")
        loaded = _reloaded(manager, tmp_path / "db").store
        assert set(loaded.documents) == {"a", "b"}
        assert loaded._next_nid == manager.store._next_nid
        # New nids don't collide with existing ones.
        fresh = loaded.allocate_nid()
        assert fresh not in set(loaded.nids())

    def test_unicode_content(self, tmp_path):
        manager = IndexManager()
        manager.load("u", "<a>héllo wörld — ünïcode</a>")
        doc = _reloaded(manager, tmp_path / "db").store.document("u")
        assert doc.string_value(0) == "héllo wörld — ünïcode"

    def test_updates_after_reload(self, tmp_path):
        manager = IndexManager()
        manager.load("d", "<a><b>x</b></a>")
        loaded = _reloaded(manager, tmp_path / "db")
        doc = loaded.store.document("d")
        nid = next(
            doc.nid[p] for p in range(len(doc)) if doc.kind[p] == TEXT
        )
        loaded.update_text(nid, "y")
        root_nid = doc.nid[doc.root_element()]
        loaded.insert_xml(root_nid, "<c>z</c>")
        assert doc.string_value(0) == "yz"
        doc.check_invariants()
        loaded.check_consistency()

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ReproError):
            load_manager(str(tmp_path))

    def test_foreign_manifest_rejected(self, tmp_path):
        (tmp_path / "MANIFEST.json").write_text(json.dumps({"format": "other"}))
        with pytest.raises(FormatError):
            load_manager(str(tmp_path))

    def test_corrupt_document_file(self, tmp_path):
        manager = IndexManager()
        manager.load("d", "<a/>")
        save_manager(manager, str(tmp_path / "db"))
        doc_file = next(
            p for p in (tmp_path / "db").iterdir() if p.suffix == ".doc"
        )
        doc_file.write_bytes(b"garbage")
        with pytest.raises(FormatError):
            load_manager(str(tmp_path / "db"))


class TestManagerRoundtrip:
    @pytest.fixture()
    def manager(self):
        m = IndexManager(typed=("double", "dateTime"), substring=True)
        m.load("person", PERSON)
        return m

    def test_indices_roundtrip(self, manager, tmp_path):
        save_manager(manager, str(tmp_path / "db"))
        loaded = load_manager(str(tmp_path / "db"))
        assert loaded.string_index.hash_of == manager.string_index.hash_of
        for name in ("double", "dateTime"):
            left = manager.typed_index(name)
            right = loaded.typed_index(name)
            assert left.fragment_of_node == right.fragment_of_node
            assert list(left.tree.keys()) == list(right.tree.keys())
        loaded.check_consistency()

    def test_lookups_after_reload(self, manager, tmp_path):
        save_manager(manager, str(tmp_path / "db"))
        loaded = load_manager(str(tmp_path / "db"))
        assert list(loaded.lookup_string("ArthurDent"))
        assert list(loaded.lookup_typed_equal("double", 78.23))
        assert list(loaded.lookup_contains("Arthur"))

    def test_updates_after_reload(self, manager, tmp_path):
        save_manager(manager, str(tmp_path / "db"))
        loaded = load_manager(str(tmp_path / "db"))
        doc = loaded.store.document("person")
        nid = next(
            doc.nid[p]
            for p in range(len(doc))
            if doc.kind[p] == TEXT and doc.text_of(p) == "Dent"
        )
        loaded.update_text(nid, "Prefect")
        assert list(loaded.lookup_string("ArthurPrefect"))
        loaded.check_consistency()

    def test_substring_config_preserved(self, manager, tmp_path):
        save_manager(manager, str(tmp_path / "db"))
        loaded = load_manager(str(tmp_path / "db"))
        assert loaded.substring_index is not None
        assert loaded.substring_index.q == manager.substring_index.q

    def test_larger_document(self, tmp_path):
        m = IndexManager(typed=("double",))
        m.load("xmark", generate_xmark(0.3))
        save_manager(m, str(tmp_path / "db"))
        loaded = load_manager(str(tmp_path / "db"))
        assert loaded.string_index.hash_of == m.string_index.hash_of
        loaded.check_consistency()
        # Real on-disk files exist with sensible sizes.
        files = list((tmp_path / "db").iterdir())
        assert any(f.suffix == ".doc" for f in files)
        assert any(f.suffix == ".sidx" for f in files)
        assert sum(f.stat().st_size for f in files) > 1000

    def test_weird_document_names(self, tmp_path):
        m = IndexManager(typed=())
        m.load("weird/name with spaces!.xml", "<a>x</a>")
        save_manager(m, str(tmp_path / "db"))
        loaded = load_manager(str(tmp_path / "db"))
        assert "weird/name with spaces!.xml" in loaded.store.documents


class TestParentCommitDirectory:
    """``fixtures/pr13_db`` was checkpointed by the commit before the
    index protocol moved field packing into the index classes (PR 13,
    ``7f8e60c``): it must still open, and re-saving it must reproduce
    every data file byte for byte."""

    FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "pr13_db"

    def test_opens_and_verifies(self):
        from repro.core.verify import verify_database

        loaded = load_manager(str(self.FIXTURE))
        assert sorted(loaded.typed_indexes) == ["dateTime", "double"]
        assert loaded.substring_index is not None
        loaded.check_consistency()
        report = verify_database(loaded)
        assert report.ok, report.summary()
        assert list(loaded.lookup_typed_equal("double", 78.23))
        assert list(loaded.lookup_typed_equal("double", -2500.0))
        assert list(loaded.lookup_contains("nïc"))

    def test_resaved_files_are_byte_identical(self, tmp_path):
        loaded = load_manager(str(self.FIXTURE))
        save_manager(loaded, str(tmp_path / "db"))
        names = sorted(p.name for p in self.FIXTURE.iterdir())
        assert sorted(p.name for p in (tmp_path / "db").iterdir()) == names
        assert sum(name.endswith("idx") for name in names) == 6
        for name in names:
            assert (tmp_path / "db" / name).read_bytes() == (
                self.FIXTURE / name
            ).read_bytes(), name


class TestFragmentPacking:
    """Regression: char-class payloads are full UTF-8 sequences, but
    the unpacker used to consume a single byte, misaligning every
    token that followed a non-ASCII character."""

    @pytest.fixture()
    def plugin(self):
        from types import SimpleNamespace

        return SimpleNamespace(
            run_class_ids=frozenset({0}), char_class_ids=frozenset({1})
        )

    @pytest.mark.parametrize("char", ["+", "€", "ß", "→", "𝄞"])
    def test_non_ascii_char_class_roundtrip(self, plugin, char):
        from repro.core.fsm import Fragment
        from repro.core.typed_index import pack_fragment, unpack_fragment

        fragment = Fragment(3, ((1, char, 1), (0, 42, 2), (1, char, 1)))
        packed = pack_fragment(plugin, fragment)
        unpacked, offset = unpack_fragment(plugin, packed, 0)
        assert unpacked == fragment
        assert offset == len(packed)

    def test_non_ascii_typed_index_survives_reload(self, tmp_path):
        """End to end: a custom type whose sign class is the euro/dollar
        currency symbol — fragments with non-ASCII payloads must survive
        a save/load cycle and keep answering equality lookups."""
        from repro.core.fsm import DfaSpec, TypePlugin, register_type
        from repro.core.fsm import registry

        spec = DfaSpec(
            name="money",
            states=["start", "signed", "amount"],
            initial="start",
            finals={"amount"},
            classes={"cur": "€$", "digit": "0123456789"},
            transitions={
                ("start", "cur"): "signed",
                ("signed", "digit"): "amount",
                ("amount", "digit"): "amount",
            },
        )
        register_type(
            "money",
            lambda: TypePlugin(
                name="money",
                dfa=spec.compile(),
                cast=lambda plugin, tokens: plugin.render(tokens),
                run_classes=("digit",),
                char_classes=("cur",),
            ),
        )
        try:
            m = IndexManager(typed=("money",))
            m.load("prices", "<r><p>€42</p><q>$7</q><x>words</x></r>")
            expected = list(m.typed_indexes["money"].entries())
            save_manager(m, str(tmp_path / "db"))
            loaded = load_manager(str(tmp_path / "db"))
            index = loaded.typed_indexes["money"]
            assert list(index.entries()) == expected
            assert list(index.lookup_equal("€42"))
            assert list(index.lookup_equal("$7"))
            loaded.check_consistency()
        finally:
            registry._FACTORIES.pop("money", None)
            registry._CACHE.pop("money", None)


class TestStemCollisions:
    """Regression: ``a/b`` and ``a_b`` both sanitised to the stem
    ``a_b``, so the second document silently overwrote the first's
    files on disk."""

    def test_colliding_names_keep_distinct_contents(self, tmp_path):
        m = IndexManager(typed=())
        m.load("a/b", "<slash>1</slash>")
        m.load("a_b", "<underscore>2</underscore>")
        m.load("a b", "<space>3</space>")
        save_manager(m, str(tmp_path / "db"))
        loaded = load_manager(str(tmp_path / "db"))
        assert loaded.store.document("a/b").serialize() == "<slash>1</slash>"
        assert (
            loaded.store.document("a_b").serialize()
            == "<underscore>2</underscore>"
        )
        assert loaded.store.document("a b").serialize() == "<space>3</space>"

    def test_manifest_records_disambiguated_stems(self, tmp_path):
        m = IndexManager(typed=())
        m.load("a/b", "<x/>")
        m.load("a_b", "<y/>")
        save_manager(m, str(tmp_path / "db"))
        manifest = json.loads((tmp_path / "db" / "MANIFEST.json").read_text())
        stems = manifest["documents"]
        assert len(set(stems.values())) == 2
        for stem in stems.values():
            # Every manifest stem resolves to a real file.
            assert (tmp_path / "db" / f"{stem}.doc").exists()
