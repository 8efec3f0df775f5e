"""Plan-cache behaviour: hits on repeats and across text updates, one
miss per structural change or base-run rebuild.

Cached plans never embed results (execution always re-reads the
indices), so a plan served after a text update must return the
*current* answer, and one plan may serve readers at different epochs.
What does invalidate a plan is a change of structure or of the index
set, or a rebuilt base run (which refreshes the statistics it was
priced from).  These tests drive every mutation kind through the
public API and check both the counters and the results.
"""

import pytest

from repro.core import IndexManager
from repro.query import query
from repro.xmldb import TEXT

XML = (
    "<people>"
    "<p><age>42</age><name>Arthur</name></p>"
    "<p><age>7</age><name>Ford</name></p>"
    "<p><age>99</age><name>Marvin</name></p>"
    "</people>"
)

Q = "//p[.//age = 42]"


def _manager():
    m = IndexManager(typed=("double",))
    m.load("people", XML)
    return m


def _counters(m):
    return m.metrics.snapshot()["counters"]


def _text_nid(m, content):
    doc = m.store.document("people")
    for pre in range(len(doc)):
        if doc.kind[pre] == TEXT and doc.text_of(pre) == content:
            return doc.nid[pre]
    raise AssertionError(content)


def _names_of(m, nids):
    out = []
    for nid in nids:
        doc, pre = m.store.node(nid)
        for child in doc.children(pre):
            if doc.name_of(child) == "name":
                out.append(doc.string_value(child))
    return sorted(out)


class TestCacheHits:
    def test_repeat_query_hits_cache(self):
        m = _manager()
        first = query(m, Q)
        for _ in range(5):
            assert query(m, Q) == first
        counters = _counters(m)
        assert counters["query.plan_cache.misses"] == 1
        assert counters["query.plan_cache.hits"] == 5

    def test_modes_are_cached_separately(self):
        m = _manager()
        query(m, Q, use_indexes=True)
        query(m, Q, use_indexes="auto")
        query(m, Q, use_indexes=False)
        assert _counters(m)["query.plan_cache.misses"] == 3

    def test_cache_is_bounded(self):
        from repro.query.planner import PLAN_CACHE_SIZE

        m = _manager()
        for i in range(PLAN_CACHE_SIZE + 50):
            query(m, f"//p[.//age = {i}]")
        assert len(m._plan_cache) <= PLAN_CACHE_SIZE

    def test_text_update_is_a_hit_with_the_new_answer(self):
        m = _manager()
        assert _names_of(m, query(m, Q)) == ["Arthur"]
        generation = m.plan_generation
        m.update_text(_text_nid(m, "7"), "42")
        assert m.plan_generation == generation
        assert _names_of(m, query(m, Q)) == ["Arthur", "Ford"]
        counters = _counters(m)
        assert counters["query.plan_cache.misses"] == 1
        assert counters["query.plan_cache.hits"] == 1

    def test_one_entry_serves_every_document(self):
        m = _manager()
        m.load("more", "<people><p><age>42</age><name>Zaphod</name></p>"
                       "</people>")
        assert _names_of(m, query(m, Q)) == ["Arthur", "Zaphod"]
        assert query(m, Q, document="more") == query(m, Q)[1:]
        assert list(m._plan_cache) == [(Q, True)]
        assert _counters(m)["query.plan_cache.misses"] == 1


#: Every structural operation, each run on ``_manager()`` plus a second
#: document "extra".
STRUCTURAL_OPS = {
    "load": lambda m: m.load("more", "<people><p><age>42</age></p></people>"),
    "unload": lambda m: m.unload("extra"),
    "insert_xml": lambda m: m.insert_xml(
        _people_nid(m), "<p><age>42</age><name>Zaphod</name></p>"
    ),
    "delete_subtree": lambda m: m.delete_subtree(query(m, Q)[0]),
    "insert_attribute": lambda m: m.insert_attribute(
        query(m, Q)[0], "id", "x"
    ),
    "rename": lambda m: m.rename(_people_nid(m), "crowd"),
    "add_typed_index": lambda m: m.add_typed_index("integer"),
}


def _people_nid(m):
    doc = m.store.document("people")
    return doc.nid[next(iter(doc.children(0)))]


class TestCacheInvalidation:
    @pytest.mark.parametrize("op", list(STRUCTURAL_OPS))
    def test_structural_op_misses(self, op):
        m = _manager()
        m.load("extra", "<people><p><age>1</age></p></people>")
        query(m, Q)
        STRUCTURAL_OPS[op](m)
        misses = _counters(m)["query.plan_cache.misses"]
        query(m, Q)
        query(m, Q)
        assert _counters(m)["query.plan_cache.misses"] == misses + 1

    def test_fold_costs_exactly_one_miss(self):
        """Text updates one at a time, each followed by a query: the
        query after a base-run rebuild (the drift rule's fold) is the
        one miss; every other query hits, and all see the new ages."""
        m = IndexManager(typed=("double",))
        m.load("people", "<people>" + "".join(
            f"<p><age>{i}</age></p>" for i in range(300)
        ) + "</people>")
        doc = m.store.document("people")
        ages = [doc.nid[pre] for pre in range(len(doc))
                if doc.kind[pre] == TEXT]
        assert len(query(m, "//p[.//age >= 1000]")) == 0
        folds = 0
        for i, nid in enumerate(ages[:50]):
            before = [index.folded_at for index in m.indexes]
            m.update_text(nid, str(1000 + i))
            folded = [index.folded_at for index in m.indexes] != before
            folds += folded
            misses = _counters(m)["query.plan_cache.misses"]
            assert len(query(m, "//p[.//age >= 1000]")) == i + 1
            assert _counters(m)["query.plan_cache.misses"] == misses + folded
        # 5 entries move per update: the drift rule (> 100) folds twice.
        assert folds == 2

    def test_insert_xml_invalidates(self):
        m = _manager()
        assert len(query(m, Q)) == 1
        doc = m.store.document("people")
        people_elem = next(iter(doc.children(0)))
        m.insert_xml(doc.nid[people_elem],
                     "<p><age>42</age><name>Zaphod</name></p>")
        assert _names_of(m, query(m, Q)) == ["Arthur", "Zaphod"]

    def test_delete_subtree_invalidates(self):
        m = _manager()
        hits = query(m, Q)
        assert len(hits) == 1
        m.delete_subtree(hits[0])
        assert query(m, Q) == []

    def test_unload_invalidates(self):
        m = _manager()
        assert query(m, Q)
        m.unload("people")
        m.load("people", "<people><p><age>1</age></p></people>")
        assert query(m, Q) == []

    def test_epoch_advances_per_mutation(self):
        m = _manager()
        start = m.epoch
        m.update_text(_text_nid(m, "Ford"), "Prefect")
        owner = query(m, Q)[0]  # a <p> element
        m.insert_attribute(owner, "id", "x")
        assert m.epoch >= start + 2


class TestEpochKeyedEntries:
    """Snapshot readers and the plan cache (docs/concurrency.md).

    Answers are keyed by epoch: a reader pinned at an old epoch, live
    or ``as_of``, answers at that epoch.  Plans are not: every reader
    is served the one cached plan of the current plan generation, and
    prices from the manager's one drift-refreshed statistics snapshot
    — any plan is a correct plan
    (test_vectorized_equivalence.TestEstimatesNeverChangeAnswers).
    """

    def _mutate_in_thread(self, m, nid, value):
        import threading

        t = threading.Thread(target=lambda: m.update_text(nid, value))
        t.start()
        t.join(timeout=60)
        assert not t.is_alive()

    def test_pinned_as_of_and_live_readers_share_one_plan(self):
        m = _manager()
        m.concurrency.set_retention(4)
        past = m.epoch
        with m.read_view() as view:
            assert _names_of(m, query(m, Q)) == ["Arthur"]
            plan = m._plan_cache[Q, True][1]
            # A concurrent writer publishes a newer epoch...
            self._mutate_in_thread(m, _text_nid(m, "7"), "42")
            assert m.epoch > view.epoch == past
            # ...and the view still answers at the epoch it pinned.
            assert _names_of(m, query(m, Q)) == ["Arthur"]
        with m.concurrency.read_view_as_of(past):
            assert _names_of(m, query(m, Q)) == ["Arthur"]
        assert _names_of(m, query(m, Q)) == ["Arthur", "Ford"]
        assert m._plan_cache[Q, True][1] is plan
        counters = _counters(m)
        assert counters["query.plan_cache.misses"] == 1
        assert counters["query.plan_cache.hits"] == 3

    def test_view_answers_are_pinned_estimates_are_shared(self):
        m = _manager()
        with m.read_view():
            priced = m.statistics("double")
            assert _names_of(m, query(m, Q, use_indexes="auto")) == ["Arthur"]
            self._mutate_in_thread(m, _text_nid(m, "7"), "42")
            # The view's answers stay at its epoch; what prices them is
            # the manager's one snapshot, the same object live readers
            # get (estimates choose between correct plans, see
            # test_vectorized_equivalence.TestEstimatesNeverChangeAnswers).
            assert _names_of(m, query(m, Q, use_indexes="auto")) == ["Arthur"]
            assert m.statistics("double") is priced
        assert m.statistics("double") is priced
        assert _names_of(m, query(m, Q, use_indexes="auto")) == [
            "Arthur", "Ford",
        ]

    def test_fresh_views_do_not_rescan_the_indices(self, monkeypatch):
        """50 x (text update, query in a fresh view) over 7.5k typed
        entries: one statistics build per index, under the drift
        threshold ever after — never one tree scan per view."""
        m = IndexManager(typed=("double",))
        m.load("people", "<people>" + "".join(
            f"<p><age>{i}</age><name>n{i}</name></p>" for i in range(2500)
        ) + "</people>")
        assert len(m.index("double").tree) >= 5000
        scans = []
        for index in m.indexes:
            build = index.statistics_type.from_tree
            monkeypatch.setattr(
                index.statistics_type, "from_tree",
                lambda *args, _build=build: scans.append(1) or _build(*args),
            )
        doc = m.store.document("people")
        ages = [
            doc.nid[pre] for pre in range(len(doc))
            if doc.kind[pre] == TEXT and doc.text_of(pre).isdigit()
        ]
        for i in range(50):
            m.update_text(ages[i], "-1")
            with m.read_view():
                hits = query(m, "//p[.//age = -1]", use_indexes="auto")
                assert len(hits) == i + 1
                query(m, '//p[name = "n7"]', use_indexes="auto")
        assert _counters(m)["statistics.refreshes"] == len(m.indexes) == 2
        assert len(scans) == 2

    def test_plan_built_in_a_view_serves_live_readers(self):
        m = _manager()
        self._mutate_in_thread(m, _text_nid(m, "99"), "42")
        with m.read_view():
            assert _names_of(m, query(m, Q)) == ["Arthur", "Marvin"]
        # The entry priced inside the view serves live clients after
        # further text updates, and they read the live answer.
        self._mutate_in_thread(m, _text_nid(m, "7"), "42")
        assert _names_of(m, query(m, Q)) == ["Arthur", "Ford", "Marvin"]
        assert _counters(m)["query.plan_cache.misses"] == 1


class TestDatabaseFacade:
    def test_metrics_expose_cache_counters(self, tmp_path):
        from repro.database import Database

        with Database(str(tmp_path / "db")) as db:
            db.load("people", XML)
            db.query(Q)
            db.query(Q)
            counters = db.metrics()["counters"]
            assert counters["query.plan_cache.hits"] >= 1
            assert counters["wal.truncates"] >= 1
