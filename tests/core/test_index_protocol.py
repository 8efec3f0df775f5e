"""The one index-maintenance protocol (:mod:`repro.core.value_index`).

Three layers of evidence that the string, typed and substring indices
are kept by the same code:

* per class, the protocol's own laws — bulk staging and incremental
  ``set_entry`` agree, ``remove_entries`` is ``remove_entry`` in bulk,
  unchanged fields cost no mutation, ``spec()`` rebuilds the algebra;
* per manager, a hypothesis sequence of every maintenance entry point
  (load / ``update_texts`` / ``insert_xml`` / ``delete_subtree`` /
  ``unload`` / save + reopen) with all three indices on, checked after
  *every* step against a from-scratch rebuild, the first-principles
  verifier and a plain scan;
* the two bugs the shared base fixed (``build_all`` could not rebuild;
  the typed index counted no-op updates as mutations).
"""

import pathlib
import re
import tempfile

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

import repro
from repro.btree import SortedRun
from repro.core import (
    IndexManager,
    StringIndex,
    SubstringIndex,
    TypedIndex,
    ValueIndex,
    build_document,
    compute_fields,
)
from repro.core.verify import verify_database
from repro.storage import load_manager, save_manager
from repro.xmldb import ATTR, ELEM, TEXT, Store

DOC = (
    '<root a="12" b="towel">'
    "<item>42</item><item>many words here</item>"
    "<mixed>4<inner>.</inner>2</mixed><empty/>"
    "<!-- not indexed --><deep><er><est>0.001</est></er></deep>"
    "</root>"
)

INDEX_FACTORIES = {
    "string": StringIndex,
    "double": lambda: TypedIndex("double"),
    "substring": SubstringIndex,
}


def state_of(index: ValueIndex):
    return dict(index.fields), list(index.entries())


@pytest.fixture(params=list(INDEX_FACTORIES))
def make_index(request):
    return INDEX_FACTORIES[request.param]


@pytest.fixture()
def doc():
    return Store().add_document("doc", DOC)


class TestProtocolConformance:
    def test_is_a_value_index_with_a_kind(self, make_index):
        index = make_index()
        assert isinstance(index, ValueIndex)
        assert index.kind in INDEX_FACTORIES
        assert isinstance(index.tree, SortedRun)

    def test_batch_field_hook_matches_scalar(self, make_index):
        index = make_index()
        texts = ["", "42", " 7.5 ", "many words", "E+", "ab"]
        assert index.field_of_texts(texts) == [
            index.field_of_text(text) for text in texts
        ]

    def test_absent_field_is_not_stored(self, make_index):
        index = make_index()
        assert index.field_of(12345) == index.absent
        if index.absent is not None:
            assert not index.stores(index.absent)

    def test_incremental_entries_equal_bulk_build(self, make_index, doc):
        bulk, incremental = make_index(), make_index()
        build_document(doc, [bulk])
        compute_fields(doc, 0, len(doc) - 1, [incremental], bulk=False)
        incremental.set_entries()
        assert state_of(incremental) == state_of(bulk)
        assert len(bulk) > 0

    def test_second_document_merges_into_the_first(self, make_index, doc):
        store = Store()
        first = store.add_document("first", DOC)
        second = store.add_document("second", "<r><v>42</v><v>towel</v></r>")
        one_by_one, together = make_index(), make_index()
        build_document(first, [one_by_one])
        build_document(second, [one_by_one])
        together.begin_bulk()
        for document in (first, second):
            compute_fields(document, 0, len(document) - 1, [together], True)
        together.finish_bulk()
        assert state_of(one_by_one) == state_of(together)

    def test_unchanged_field_is_no_mutation(self, make_index, doc):
        index = make_index()
        build_document(doc, [index])
        before = index.mutations
        for nid, field in list(index.fields.items()):
            index.set_entry(nid, field)
        index.set_entry(10**9, index.absent)  # nothing stored, nothing to drop
        index.remove_entry(10**9)
        assert index.mutations == before

    def test_changed_field_is_one_mutation(self, make_index, doc):
        index = make_index()
        build_document(doc, [index])
        nid = next(iter(index.fields))
        before = index.mutations
        index.set_entry(nid, index.field_of_text("31337"))
        assert index.mutations == before + 1
        index.remove_entry(nid)
        assert index.mutations == before + 2
        assert index.field_of(nid) == index.absent

    def test_remove_entries_equals_remove_entry_loop(self, make_index, doc):
        one_pass, one_by_one = make_index(), make_index()
        build_document(doc, [one_pass])
        build_document(doc, [one_by_one])
        victims = [doc.nid[pre] for pre in range(0, len(doc), 2)]
        stored = sum(1 for nid in victims if nid in one_pass.fields)
        assert one_pass.remove_entries(victims) == stored
        for nid in victims:
            one_by_one.remove_entry(nid)
        assert state_of(one_pass) == state_of(one_by_one)
        assert one_pass.remove_entries(doc.nid) == len(one_by_one)
        assert state_of(one_pass) == ({}, [])


class TestNoSidePaths:
    """Nothing in ``src/repro`` maintains or persists an index behind
    the protocol's back: no duck-typed hook probes, no switch on the
    index class, no reach into another module's field map, no index
    that keeps its keys outside its run — and no index builds
    per-entry tuples on its scan path (``range_keys`` stays in
    ``bplus.py`` only for the layer benchmark that times it) — no
    second bench emitter beside the drivers' ``claims`` — no engine
    mode without the concurrency controller or group commit — no
    second way to migrate a document — and no read that loops per
    document or per candidate beside the one store-wide pipeline — and
    no query answer sent as per-row JSON — and no second client, no
    pool-size option and no prune on a reader's way out — and no
    payload encoded twice: bytes ride the frame tail raw, in one
    width — and no thread hop on a read: reads run on the server's
    event loop — and one XML parser, the stdlib's expat, with no
    scanner of its own beside it — and one delta shape under every
    index, frozen columns, with the B+-tree left to ``bplus.py`` — and
    no layout version on the shards: the coordinator alone decides
    which copy of a migrating document answers."""

    SOURCES = sorted(pathlib.Path(repro.__file__).parent.rglob("*.py"))
    #: pattern -> the one module (if any) allowed to match it.
    FORBIDDEN = {
        r"getattr\((index|algebra)\b": None,
        r"type\(index\) is\b": None,
        r"\b_substring_\w+": None,
        r"\bhash_of\b": "string_index.py",
        r"\bfragment_of_node\b": "typed_index.py",
        r"\b_value_of\b": "typed_index.py",
        r"\.range_keys\(": "bplus.py",
        r"\bsnapshottable\b": None,
        r"\b_postings\b": None,
        r"\b_drop_postings\b": None,
        r"\bparallel_backend\b": None,
        r"\bcompute_fields_parallel\b": None,
        r"\bProcessPoolExecutor\b": None,
        r"\bdef spec\b": None,
        # The brackets keep a grep for either name from matching here.
        r"\bpytest[_]benchmark\b": None,
        r"benchmark[-]only": None,
        # One engine mode: every manager owns its concurrency
        # controller and every engine commits through group commit.
        r"\benable_concurrency\b": None,
        r"concurrency is None": None,
        r"\bgroup_batch_max\b": None,
        r"no[-]group[-]commit": None,
        # One migration path: export and import under one pause, with
        # no follower copy staged beside the shards.
        r"\b_migrate_snapshot\b": None,
        r"migrate\.after_sync": None,
        r"\.staging-": None,
        r'method="(snapshot|direct)"': None,
        # One read pipeline: a scatter runs one plan per shard and the
        # gather concatenates column segments by document; lookups
        # verify candidates in batch over the store view.
        r"\b_leaf_nids_cache\b": None,
        r"\b_documents_query\b": None,
        r"\b_merge_rows\b": None,
        r"\bPRE_BITS\b": None,
        r"verify: bool": None,
        # One query answer shape: packed columns, no per-row lists and
        # no request flag choosing rows over nids.
        r"\[list\(row\) for row in": None,
        r'result\["rows"\]': None,
        r'"rows": True': None,
        # One client, fixed server pools, and readers that never prune.
        r"\bAsyncClient\b": None,
        r"\bread_workers\b": None,
        r"\bwrite_workers\b": None,
        r"\boldest_pin\b": None,
        # One rule for bytes between processes: raw in the frame tail.
        r"\bbase64\b": None,
        r"\bbinascii\b": None,
        r"\bNARROW_MIN\b": None,
        # No thread hop on a read: reads run on the event loop, and
        # updates and byte transfers share one worker pool.
        r"\b_read_pool\b": None,
        r"\bREAD_WORKERS\b": None,
        r"serve-read": None,
        # One XML parser: expat resolves references, normalises line
        # ends and attribute values, and reads the internal DTD subset.
        r"\bunescape\b": None,
        r"\b_ENTITY_DECL\b": None,
        r"\b_parse_internal_subset\b": None,
        r"\b_parse_attributes\b": None,
        r"\b_normalise_line_ends\b": None,
        # One delta shape: frozen columns; the B+-tree stays only for
        # the layer benchmark that times it.
        r"\bBPlusTree\b": "bplus.py",
        r"\bTreeSnapshot\b": "bplus.py",
        # One rule for which copy of a migrating document answers: the
        # coordinator's registered plans, with no layout version on
        # the shards and no re-plan on a stale one.
        r"\bplacement_version\b": None,
        r"\bE_DOC_MOVED\b": None,
        r"\bDocumentMovedError\b": None,
        r"\bset_placement\b": None,
        r"\bMOVED_RETRIES\b": None,
        r"\b_broadcast_placement\b": None,
        r"\b_views_open\b": None,
    }

    @pytest.mark.parametrize("pattern", list(FORBIDDEN))
    def test_pattern_is_absent(self, pattern):
        owner = self.FORBIDDEN[pattern]
        hits = [
            f"{path.name}:{number}"
            for path in self.SOURCES
            if path.name != owner
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(pattern, line)
        ]
        assert hits == []


class TestRebuild:
    """Regression: ``build_all`` on a manager that already held entries
    merged the re-staged keys with the identical existing ones and
    raised ``bulk_load requires strictly sorted keys``."""

    def test_build_all_twice(self):
        manager = IndexManager(typed=("double",), substring=True)
        manager.load("doc", DOC)
        manager.load("other", "<r><v>42</v><v>towel</v></r>")
        sizes = manager.index_sizes()
        for _ in range(2):
            manager.build_all()
            manager.check_consistency()
            assert verify_database(manager).ok
        assert manager.index_sizes() == sizes


class TestMutationCounter:
    """Regression: ``TypedIndex.set_entry`` bumped ``mutations`` for
    every recomputed ancestor even when nothing it stores changed, so
    string-only updates aged the typed statistics."""

    @pytest.fixture()
    def manager(self):
        m = IndexManager(typed=("double",))
        m.load("doc", "<a><b><c><t>hello</t>1</c></b></a>")
        return m

    def _text(self, manager, value):
        doc = manager.store.document("doc")
        return next(
            doc.nid[pre]
            for pre in range(len(doc))
            if doc.kind[pre] == TEXT and doc.text_of(pre) == value
        )

    def test_string_only_update_leaves_typed_counter_alone(self, manager):
        typed = manager.typed_index("double")
        before = typed.mutations
        manager.update_text(self._text(manager, "hello"), "world")
        assert typed.mutations == before
        assert manager.string_index.mutations > 0

    def test_a_fold_takes_the_batch_that_crossed_the_bound(self):
        """The drift rule runs once the batch is in the run, so the
        fold it triggers leaves no delta behind: whatever is built from
        the run at ``folded_at`` (planner statistics) sees the batch."""
        index = StringIndex()
        folds = 0
        for round_ in range(6):
            before = index.folded_at
            index.set_entries(
                range(60),
                [index.field_of_text(f"r{round_} {nid}") for nid in range(60)],
            )
            if index.folded_at != before:
                folds += 1
                state = index.tree.snapshot()
                assert index.folded_at == index.mutations
                assert len(state.dead) == len(state.ins_nids) == 0
        assert folds >= 2
        index.tree.check_invariants()

    def test_typed_update_counts_the_changed_entry_only(self, manager):
        typed = manager.typed_index("double")
        before = typed.mutations
        manager.update_text(self._text(manager, "1"), "2")
        # Only the text node's entry changes: <c>, <b>, <a> and the
        # document node stay rejected ("hello2" is no double).
        assert typed.mutations == before + 1
        manager.check_consistency()


_VALUES = ["", "x", "42", "4.2", " 7 ", "E+", "towel", "hitchhiker", "0.001"]
_NEEDLES = ["tow", "hit", "4", "owe", "xyz"]


class ProtocolMachine(RuleBasedStateMachine):
    """Every maintenance entry point, all three indices, checked after
    every step."""

    @initialize()
    def setup(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.saves = 0
        self.counter = 0
        self.manager = IndexManager(typed=("double",), substring=True)
        self.manager.load("doc0", DOC)

    def _docs(self):
        return list(self.manager.store.documents.values())

    def _nodes(self, kinds):
        return [
            (doc, doc.nid[pre])
            for doc in self._docs()
            for pre in range(len(doc))
            if doc.kind[pre] in kinds
        ]

    @rule(value=st.sampled_from(_VALUES))
    def load(self, value):
        self.counter += 1
        self.manager.load(
            f"doc{self.counter}",
            f'<r k="{value}"><v>{value}</v><w>towel {value}</w></r>',
        )

    @rule(pick=st.integers(0, 10**6))
    def unload(self, pick):
        docs = self._docs()
        if len(docs) > 1:
            self.manager.unload(docs[pick % len(docs)].name)

    @rule(
        picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=4),
        value=st.sampled_from(_VALUES),
    )
    def update_texts(self, picks, value):
        leaves = self._nodes((TEXT, ATTR))
        if leaves:
            self.manager.update_texts(
                [(leaves[pick % len(leaves)][1], value) for pick in picks]
            )

    @rule(pick=st.integers(0, 10**6), value=st.sampled_from(_VALUES))
    def insert_xml(self, pick, value):
        elements = self._nodes((ELEM,))
        self.counter += 1
        self.manager.insert_xml(
            elements[pick % len(elements)][1],
            f'<x{self.counter} k="{value}">{value}<y>hitch{value}</y>'
            f"</x{self.counter}>",
        )

    @rule(pick=st.integers(0, 10**6))
    def delete_subtree(self, pick):
        victims = [
            nid
            for doc, nid in self._nodes((ELEM, TEXT))
            if nid != doc.nid[doc.root_element()]
        ]
        if victims:
            self.manager.delete_subtree(victims[pick % len(victims)])

    @rule()
    def save_and_reopen(self):
        self.saves += 1
        path = f"{self.tmp.name}/db{self.saves}"
        save_manager(self.manager, path)
        self.manager = load_manager(path)
        assert self.manager.substring_index is not None

    @invariant()
    def indices_match_rebuild_verifier_and_scan(self):
        if not hasattr(self, "manager"):
            return
        manager = self.manager
        manager.check_consistency()
        report = verify_database(manager)
        assert report.ok, report.summary()
        for needle in _NEEDLES:
            scanned = [
                nid
                for doc, nid in self._nodes((TEXT, ATTR))
                if needle in doc.text_of(doc.pre_of(nid))
            ]
            assert sorted(manager.lookup_contains(needle)) == sorted(scanned)

    def teardown(self):
        if hasattr(self, "tmp"):
            self.tmp.cleanup()


ProtocolMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=15, deadline=None
)
TestProtocolStateful = ProtocolMachine.TestCase
