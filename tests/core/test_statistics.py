"""Tests for index statistics and the cost-based planner mode."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IndexManager
from repro.core.statistics import (
    EquiDepthHistogram,
    StringIndexStatistics,
    TypedIndexStatistics,
)
from repro.query import query
from repro.workloads import generate_xmark


class TestEquiDepthHistogram:
    def test_empty(self):
        histogram = EquiDepthHistogram([])
        assert histogram.estimate_range(0, 10) == 0.0
        assert histogram.estimate_equal(5) == 0.0

    def test_bucket_validation(self):
        with pytest.raises(ValueError):
            EquiDepthHistogram([1.0], buckets=0)

    def test_full_range_is_total(self):
        values = [float(i) for i in range(1000)]
        histogram = EquiDepthHistogram(values)
        assert histogram.estimate_range(None, None) == 1000.0
        assert histogram.estimate_less_equal(999.0) == 1000.0
        assert histogram.estimate_less_equal(-1.0) == 0.0

    def test_half_range_roughly_half(self):
        values = [float(i) for i in range(1000)]
        histogram = EquiDepthHistogram(values)
        estimate = histogram.estimate_range(None, 499.0)
        assert 400 <= estimate <= 600

    def test_skewed_distribution(self):
        # 90% of the mass at one value; equi-depth adapts.
        values = [1.0] * 900 + [float(i) for i in range(2, 102)]
        histogram = EquiDepthHistogram(values)
        assert histogram.estimate_equal(1.0) > 100
        assert histogram.estimate_range(50.0, 100.0) < 200

    @given(
        st.lists(st.floats(0, 1000, allow_nan=False), min_size=1, max_size=500),
        st.floats(0, 1000),
        st.floats(0, 1000),
    )
    @settings(max_examples=100, deadline=None)
    def test_estimates_bounded_and_ordered(self, values, a, b):
        low, high = min(a, b), max(a, b)
        histogram = EquiDepthHistogram(values)
        estimate = histogram.estimate_range(low, high)
        assert 0.0 <= estimate <= len(values) + 1
        assert histogram.estimate_less_equal(low) <= (
            histogram.estimate_less_equal(high) + 1e-9
        )


class TestIndexStatistics:
    @pytest.fixture(scope="class")
    def manager(self):
        m = IndexManager(typed=("double",))
        m.load("xmark", generate_xmark(1.0))
        return m

    def test_typed_snapshot(self, manager):
        index = manager.typed_index("double")
        stats = TypedIndexStatistics.from_tree(index.tree, index.mutations)
        total = stats.histogram.total
        assert total == manager.typed_index("double").castable_count()
        # Estimates track reality within a factor for broad ranges.
        actual = len(list(manager.lookup_typed_range("double", 0.0, 100.0)))
        estimate = stats.estimate("<=", 100.0)
        assert estimate > 0
        assert actual / 4 <= estimate + stats.estimate("<", 0.0) + 50

    def test_string_snapshot(self, manager):
        index = manager.string_index
        stats = StringIndexStatistics.from_tree(index.tree, index.mutations)
        assert stats.entries == len(manager.string_index)
        assert 1 <= stats.estimate_equal() < 10

    def test_manager_cache_reuses_snapshot(self, manager):
        first = manager.statistics("double")
        second = manager.statistics("double")
        assert first is second

    def test_cache_invalidated_after_drift(self):
        m = IndexManager(typed=("double",))
        m.load("doc", "<r>" + "".join(f"<v>{i}</v>" for i in range(50)) + "</r>")
        first = m.statistics("double")
        doc = m.store.document("doc")
        from repro.xmldb import TEXT

        texts = [doc.nid[p] for p in range(len(doc)) if doc.kind[p] == TEXT]
        # Churn far past the 10%/100-entry drift threshold.
        for round_ in range(3):
            m.update_texts([(nid, str(round_ * 1000)) for nid in texts])
        second = m.statistics("double")
        assert second is not first

    def test_drift_refresh_rebuilds_histogram(self):
        """Once mutations pass the drift threshold the snapshot is
        recomputed and its histogram reflects the *new* values."""
        m = IndexManager(typed=("double",))
        m.load(
            "doc", "<r>" + "".join(f"<v>{i}</v>" for i in range(200)) + "</r>"
        )
        stale = m.statistics("double")
        assert stale.estimate("<=", 199.0) > 100
        doc = m.store.document("doc")
        from repro.xmldb import TEXT

        texts = [doc.nid[p] for p in range(len(doc)) if doc.kind[p] == TEXT]
        # Move every value three orders of magnitude up, well past the
        # max(100, 10%) drift threshold.
        m.update_texts([(nid, str(100_000 + nid)) for nid in texts])
        fresh = m.statistics("double")
        assert fresh is not stale
        assert fresh.estimate("<=", 199.0) < stale.estimate("<=", 199.0)
        assert fresh.estimate(">=", 100_000.0) > 100
        counters = m.metrics.snapshot()["counters"]
        assert counters["statistics.refreshes"] == 2

    def test_small_drift_keeps_snapshot(self):
        m = IndexManager(typed=("double",))
        m.load(
            "doc", "<r>" + "".join(f"<v>{i}</v>" for i in range(200)) + "</r>"
        )
        first = m.statistics("double")
        doc = m.store.document("doc")
        from repro.xmldb import TEXT

        nid = next(
            doc.nid[p] for p in range(len(doc)) if doc.kind[p] == TEXT
        )
        m.update_text(nid, "9999")  # far below the drift threshold
        assert m.statistics("double") is first
        assert m.metrics.snapshot()["counters"]["statistics.cached"] >= 1

    def test_string_stats_requires_index(self):
        m = IndexManager(string=False, typed=("double",))
        from repro.errors import IndexError_

        with pytest.raises(IndexError_):
            m.statistics("string")


class TestAutoMode:
    @pytest.fixture(scope="class")
    def manager(self):
        m = IndexManager(typed=("double",))
        m.load("xmark", generate_xmark(1.0))
        return m

    def test_rejects_bad_mode(self, manager):
        with pytest.raises(ValueError):
            query(manager, "//item", use_indexes="maybe")

    def test_auto_equals_forced_and_scan(self, manager):
        for text in (
            "//item[quantity = 5]",
            "//item[price > 0]",  # unselective
            "//person[age >= 97]",
        ):
            auto = query(manager, text, use_indexes="auto")
            forced = query(manager, text, use_indexes=True)
            scan = query(manager, text, use_indexes=False)
            assert auto == forced == scan, text

    def test_auto_scans_unselective_range(self, manager):
        """price > 0 matches ~every double: the estimate must exceed the
        scan threshold so auto mode skips the index."""
        from repro.query.planner import SCAN_THRESHOLD, _estimate_driver
        from repro.query.parser import parse_query

        parsed = parse_query("//item[price > 0]")
        driver = parsed.path.steps[0].predicates[0]
        doc = manager.store.document("xmark")
        estimate = _estimate_driver(manager, driver)
        assert estimate > SCAN_THRESHOLD * len(doc) * 0.1
        # And a selective one stays under it.
        selective = parse_query("//person[age = 55]")
        estimate = _estimate_driver(
            manager, selective.path.steps[0].predicates[0]
        )
        assert estimate < SCAN_THRESHOLD * len(doc)
