"""Equivalence tests for the parallel chunked creation pass.

The contract of :mod:`repro.core.parallel` is *bit-for-bit* equality
with the serial Figure 7 pass: same per-node fields, same B-tree key
sequences, and even the same dict insertion order of the side
structures — for every worker count and both pool backends.
"""

import pytest

from repro.core import IndexManager
from repro.core.builder import build_document
from repro.core.parallel import (
    AUTO_MIN_ROWS,
    build_document_parallel,
    compute_fields_parallel,
    resolve_workers,
    split_document,
)
from repro.core.string_index import StringIndex
from repro.core.typed_index import TypedIndex
from repro.errors import IndexError_
from repro.workloads import DATASETS
from repro.xmldb import ELEM, Store

SCALE = 0.02
WORKERS = (1, 2, 8)
BACKENDS = ("thread", "process")

MIXED_CONTENT = (
    "<article>"
    "<p>The answer is <b>42</b>, not <i>41.5</i> at all.</p>"
    "<p>Published <date>2008-11-03</date>; revised "
    "<date>2009-02-17</date>.</p>"
    "<footnote>see <ref id='a7'>chapter <num>3</num></ref> for "
    "details</footnote>"
    "</article>"
)

ATTRIBUTE_HEAVY = (
    "<catalog count='3' revision='1.4'>"
    "<item sku='A-1' price='19.99' stock='5' discontinued='false'/>"
    "<item sku='B-2' price='7.25' stock='0' discontinued='true'>"
    "<note lang='en' stars='4'>restock pending</note></item>"
    "<item sku='C-3' price='133' stock='88' discontinued='false'/>"
    "</catalog>"
)


class CustomStringIndex(StringIndex):
    """Module-level so the process backend can pickle its class."""


def serial_snapshot(doc):
    string, typed = StringIndex(), TypedIndex("double")
    build_document(doc, [string, typed])
    return snapshot_of(string, typed)


def snapshot_of(string, typed):
    return (
        list(string.hash_of.items()),
        list(string.tree.keys()),
        list(typed.fragment_of_node.items()),
        list(typed.tree.keys()),
    )


@pytest.fixture(scope="module")
def catalog_docs():
    store = Store()
    return {
        name: store.add_document(name, spec.build(SCALE))
        for name, spec in DATASETS.items()
    }


@pytest.fixture(scope="module")
def hand_docs():
    store = Store()
    return {
        "mixed": store.add_document("mixed", MIXED_CONTENT),
        "attrs": store.add_document("attrs", ATTRIBUTE_HEAVY),
    }


class TestSplitDocument:
    @pytest.mark.parametrize("name", list(DATASETS))
    @pytest.mark.parametrize("target", [1, 2, 4, 16])
    def test_partition_covers_document(self, catalog_docs, name, target):
        doc = catalog_docs[name]
        plan = split_document(doc, target)
        assert sum(c.rows for c in plan.chunks) + len(plan.spine) == len(doc)

    @pytest.mark.parametrize("name", list(DATASETS))
    def test_chunks_are_complete_sibling_runs(self, catalog_docs, name):
        doc = catalog_docs[name]
        plan = split_document(doc, 8)
        spine = set(plan.spine)
        previous_end = -1
        for chunk in plan.chunks:
            assert chunk.start > previous_end  # disjoint, sorted
            previous_end = chunk.end
            assert chunk.parent_pre in spine
            # The chunk is a run of whole subtrees of that parent.
            pre = chunk.start
            while pre <= chunk.end:
                assert doc.parent(pre) == chunk.parent_pre
                pre += doc.size[pre] + 1
            assert pre == chunk.end + 1

    def test_spine_is_root_first_ancestor_path(self, catalog_docs):
        doc = catalog_docs["XMark1"]
        plan = split_document(doc, 8)
        assert plan.spine[0] == 0
        for parent, child in zip(plan.spine, plan.spine[1:]):
            assert doc.parent(child) == parent
            assert doc.kind[child] == ELEM

    def test_single_chunk_for_huge_target(self, catalog_docs):
        doc = catalog_docs["DBLP"]
        plan = split_document(doc, 1)
        assert len(plan.chunks) >= 1
        assert sum(c.rows for c in plan.chunks) + len(plan.spine) == len(doc)


class TestResolveWorkers:
    def test_none_is_serial(self):
        assert resolve_workers(None) == 0

    def test_auto_is_positive(self):
        assert resolve_workers("auto") >= 1

    def test_explicit_count(self):
        assert resolve_workers(3) == 3
        assert resolve_workers("5") == 5

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(IndexError_):
            resolve_workers(bad)

    def test_rejects_unknown_backend(self, hand_docs):
        with pytest.raises(IndexError_):
            compute_fields_parallel(
                hand_docs["mixed"], [StringIndex()], 2, backend="greenlet"
            )

    def test_process_backend_rebuilds_any_index_from_its_spec(
        self, hand_docs
    ):
        """Workers rebuild the algebra from ``ValueIndex.spec()``, so a
        subclass needs no registration (there is no per-kind switch)."""
        doc = hand_docs["mixed"]
        custom, plain = CustomStringIndex(), StringIndex()
        build_document_parallel(doc, [custom], workers=2, backend="process")
        build_document(doc, [plain])
        assert custom.spec() == (CustomStringIndex, ())
        assert custom.hash_of == plain.hash_of
        assert list(custom.tree.keys()) == list(plain.tree.keys())


class TestEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", list(DATASETS))
    def test_catalog_datasets(self, catalog_docs, name, backend):
        doc = catalog_docs[name]
        expected = serial_snapshot(doc)
        for workers in WORKERS:
            string, typed = StringIndex(), TypedIndex("double")
            build_document_parallel(
                doc, [string, typed], workers=workers, backend=backend
            )
            assert snapshot_of(string, typed) == expected, (
                name, backend, workers,
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("doc_name", ["mixed", "attrs"])
    def test_hand_written_documents(self, hand_docs, doc_name, backend):
        """Mixed content and attribute-heavy trees exercise the ATTR
        skipping and partial-token merging paths across chunk seams."""
        doc = hand_docs[doc_name]
        expected = serial_snapshot(doc)
        for workers in WORKERS:
            string, typed = StringIndex(), TypedIndex("double")
            build_document_parallel(
                doc, [string, typed], workers=workers, backend=backend
            )
            assert snapshot_of(string, typed) == expected, (
                doc_name, backend, workers,
            )

    def test_more_workers_than_subtrees(self, hand_docs):
        """Worker counts beyond the chunk count degrade gracefully."""
        doc = hand_docs["attrs"]
        expected = serial_snapshot(doc)
        string, typed = StringIndex(), TypedIndex("double")
        build_document_parallel(doc, [string, typed], workers=64,
                                backend="thread")
        assert snapshot_of(string, typed) == expected

    @pytest.mark.parametrize("type_name", ["dateTime", "duration"])
    def test_other_typed_indexes(self, catalog_docs, type_name):
        doc = catalog_docs["EPAGeo"]
        serial = TypedIndex(type_name)
        build_document(doc, [serial])
        for backend in BACKENDS:
            parallel = TypedIndex(type_name)
            build_document_parallel(doc, [parallel], workers=2,
                                    backend=backend)
            assert (
                list(parallel.fragment_of_node.items())
                == list(serial.fragment_of_node.items())
            )
            assert list(parallel.tree.keys()) == list(serial.tree.keys())


class TestManagerIntegration:
    @pytest.mark.parametrize("name", list(DATASETS))
    def test_check_consistency_after_parallel_load(self, name):
        manager = IndexManager(parallel=2, parallel_backend="thread")
        manager.load(name, DATASETS[name].build(SCALE))
        manager.check_consistency()

    def test_load_per_call_override(self):
        manager = IndexManager()  # serial default
        manager.load("mixed", MIXED_CONTENT, parallel=2)
        manager.check_consistency()

    def test_auto_skips_small_documents(self):
        manager = IndexManager(parallel="auto")
        doc = manager.load("mixed", MIXED_CONTENT)
        assert len(doc) < AUTO_MIN_ROWS
        assert manager._build_workers(doc, "auto") == 0
        manager.check_consistency()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_substring_index_parallel_equals_serial(self, backend):
        """The substring index rides the same chunked pass as the
        others: every index of a pooled build equals the serial one."""
        xml = DATASETS["DBLP"].build(SCALE)
        serial = IndexManager(substring=True)
        serial.load("DBLP", xml)
        parallel = IndexManager(
            substring=True, parallel=2, parallel_backend=backend
        )
        parallel.load("DBLP", xml)
        for built, expected in zip(parallel.indexes, serial.indexes):
            assert list(built.fields.items()) == list(
                expected.fields.items()
            ), built.kind
            assert list(built.entries()) == list(expected.entries())
        assert len(parallel.substring_index) > 0

    def test_build_all_parallel(self):
        serial = IndexManager()
        parallel = IndexManager()
        for name in ("XMark1", "EPAGeo"):
            xml = DATASETS[name].build(SCALE)
            serial.load(name, xml)
            parallel.store.add_document(name, xml)
        parallel.build_all(parallel=2)
        assert (
            list(parallel.string_index.hash_of.items())
            == list(serial.string_index.hash_of.items())
        )
        assert (
            list(parallel.string_index.tree.keys())
            == list(serial.string_index.tree.keys())
        )

    def test_add_typed_index_parallel(self):
        manager = IndexManager(typed=())
        manager.load("Wiki", DATASETS["Wiki"].build(SCALE))
        built = manager.add_typed_index("double", parallel=2)
        reference = IndexManager()
        reference.load("Wiki", DATASETS["Wiki"].build(SCALE))
        expected = reference.typed_indexes["double"]
        assert (
            list(built.fragment_of_node.items())
            == list(expected.fragment_of_node.items())
        )
        assert list(built.tree.keys()) == list(expected.tree.keys())

    def test_updates_after_parallel_build(self):
        manager = IndexManager(parallel=2, parallel_backend="thread")
        doc = manager.load("mixed", MIXED_CONTENT)
        text_pre = next(
            pre for pre in range(len(doc)) if doc.kind[pre] == 2
        )
        manager.update_text(doc.nid[text_pre], "Replacement 12.5 text")
        manager.check_consistency()
