"""Plan-cache behaviour: hits on repeats, invalidation on mutation.

Cached plans never embed results (execution always re-reads the
indices), but a stale plan could still carry outdated cost decisions —
and above all, a cached plan served after a mutation must return the
*current* document state.  These tests drive every mutation kind
through the public API and check both the counters and the results.
"""

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


class TestCacheInvalidation:
    def test_update_text_invalidates(self):
        m = _manager()
        assert _names_of(m, query(m, Q)) == ["Arthur"]
        m.update_text(_text_nid(m, "7"), "42")
        assert _names_of(m, query(m, Q)) == ["Arthur", "Ford"]
        counters = _counters(m)
        assert counters["query.plan_cache.misses"] == 2

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

    Cached plans are keyed by the epoch they were built at.  A reader
    pinned at an old epoch must never be served (or poison the cache
    with) a plan built at a newer epoch — and vice versa.  Estimates
    are not part of that contract: every reader prices from the
    manager's one drift-refreshed statistics snapshot.
    """

    def _mutate_in_thread(self, m, nid, value):
        import threading

        t = threading.Thread(target=lambda: m.update_text(nid, value))
        t.start()
        t.join(timeout=60)
        assert not t.is_alive()

    def test_pinned_view_never_sees_newer_epoch_plan(self):
        m = _manager()
        m.enable_concurrency()
        with m.read_view() as view:
            assert _names_of(m, query(m, Q)) == ["Arthur"]
            pinned = view.epoch
            # A concurrent writer publishes a newer epoch.
            self._mutate_in_thread(m, _text_nid(m, "7"), "42")
            assert m.epoch > pinned
            # Unpinned clients re-plan at the new epoch and see Ford...
            t = []
            import threading

            worker = threading.Thread(
                target=lambda: t.append(query(m, Q))
            )
            worker.start()
            worker.join(timeout=60)
            assert _names_of(m, t[0]) == ["Arthur", "Ford"]
            cached_epoch, _plan = m._plan_cache[(Q, "people", True)]
            assert cached_epoch == m.epoch
            # ...but this view still answers — and re-prices — at its
            # pinned epoch: the newer entry is a miss, not a stale hit.
            misses = _counters(m)["query.plan_cache.misses"]
            assert _names_of(m, query(m, Q)) == ["Arthur"]
            assert _counters(m)["query.plan_cache.misses"] == misses + 1
            cached_epoch, _plan = m._plan_cache[(Q, "people", True)]
            assert cached_epoch == pinned

    def test_view_answers_are_pinned_estimates_are_shared(self):
        m = _manager()
        m.enable_concurrency()
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
        m.enable_concurrency()
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

    def test_view_epoch_plan_does_not_poison_live_cache(self):
        m = _manager()
        m.enable_concurrency()
        self._mutate_in_thread(m, _text_nid(m, "99"), "42")
        live = m.epoch
        with m.read_view() as view:
            assert view.epoch == live
            query(m, Q)
        # The entry priced inside the view is valid for live clients
        # only because the epochs coincide; after one more mutation it
        # must be re-priced, not served.
        self._mutate_in_thread(m, _text_nid(m, "7"), "42")
        misses = _counters(m)["query.plan_cache.misses"]
        assert _names_of(m, query(m, Q)) == ["Arthur", "Ford", "Marvin"]
        assert _counters(m)["query.plan_cache.misses"] == misses + 1


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
