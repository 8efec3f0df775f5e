"""Unit tests for the benchmark drivers (tiny scales)."""

import json

import pytest

from repro.bench import concurrent, figure9, figure10, figure11, table1
from repro.bench.harness import format_bytes, measure_seconds, render_table

SCALE = 0.02


class TestHarness:
    def test_measure_seconds(self):
        seconds, result = measure_seconds(lambda: 42, repeats=2)
        assert result == 42
        assert seconds >= 0.0

    def test_render_table_alignment(self):
        table = render_table(["a", "long"], [["1", "2"], ["333", "4"]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert len({len(line) for line in lines}) == 1  # aligned

    @pytest.mark.parametrize(
        "count,expected",
        [(10, "10.0 B"), (2048, "2.0 KB"), (3 * 1024 * 1024, "3.0 MB")],
    )
    def test_format_bytes(self, count, expected):
        assert format_bytes(count) == expected


class TestTable1Driver:
    def test_run_and_format(self):
        stats = table1.run(scale=SCALE)
        assert set(stats) == {
            "XMark1", "XMark2", "XMark4", "XMark8",
            "EPAGeo", "DBLP", "PSD", "Wiki",
        }
        report = table1.format_report(stats)
        assert "XMark1" in report and "Wiki" in report
        # Paper values shown in parentheses.
        assert "(64%)" in report


class TestFigure9Driver:
    def test_measure_dataset(self):
        from repro.workloads import dataset

        result = figure9.measure_dataset(
            "XMark1", dataset("XMark1").build(SCALE), repeats=1
        )
        assert result.nodes > 0
        assert result.shred_seconds > 0
        assert 0 < result.string_bytes < result.db_bytes
        assert 0 < result.double_bytes < result.string_bytes
        assert result.string_overhead > 0
        assert 0 < result.string_storage_fraction < 1

    def test_reports_mention_paper_values(self):
        from repro.workloads import dataset

        results = [
            figure9.measure_dataset(
                name, dataset(name).build(SCALE), repeats=1
            )
            for name in ("XMark1", "Wiki")
        ]
        time_report = figure9.format_time_report(results)
        storage_report = figure9.format_storage_report(results)
        assert "ovh (paper)" in time_report
        assert "String/DB (paper)" in storage_report


class TestFigure10Driver:
    def test_measure_series(self):
        from repro.workloads import dataset

        series = figure10.measure_dataset(
            "XMark1",
            dataset("XMark1").build(SCALE),
            "string",
            batches=(1, 10),
            repeats=1,
        )
        assert set(series.timings) == {1, 10}
        assert all(t >= 0 for t in series.timings.values())
        report = figure10.format_report([series])
        assert "1 upd (ms)" in report

    def test_double_kind(self):
        from repro.workloads import dataset

        series = figure10.measure_dataset(
            "XMark1",
            dataset("XMark1").build(SCALE),
            "double",
            batches=(1,),
            repeats=1,
        )
        assert series.index_kind == "double"


class TestFigure11Driver:
    def test_histogram_totals(self):
        results = figure11.run(scale=SCALE)
        for result in results:
            total = sum(
                size * count for size, count in result.histogram.items()
            )
            assert total == result.distinct_strings
            assert 0.0 <= result.collision_fraction <= 1.0
        report = figure11.format_report(results)
        assert "Collide%" in report

    def test_wiki_has_tail(self):
        results = {r.name: r for r in figure11.run(scale=0.1)}
        assert results["Wiki"].max_group >= 2


class TestConcurrentDriver:
    def test_run_and_report(self, tmp_path):
        results = concurrent.run(
            writer_counts=(1, 2), updates_per_writer=15
        )
        assert [r.writers for r in results] == [1, 2]
        for result in results:
            assert result.commits == result.writers * 15
            assert result.commits_per_second > 0
            assert result.commit_p99_us >= result.commit_p50_us >= 0
            # Every commit goes through a group-commit batch.
            assert result.batch_records == result.commits
        report = concurrent.format_report(results)
        assert "commits/s" in report and "batch occ" in report
        path = tmp_path / "serve.json"
        payload = concurrent.write_json(results, path=str(path))
        assert path.exists()
        assert json.loads(path.read_text()) == payload
        assert payload["bench"] == "concurrent_serve"
        assert payload["config"]["updates_per_writer"] == 15
        assert payload["aggregate"]["speedup_vs_baseline"] > 0
        baseline = payload["aggregate"]["baseline_1_writer"]
        assert baseline > 0

    def test_claims(self):
        results = concurrent.run(
            writer_counts=(1, 4), updates_per_writer=5
        )
        records = concurrent.claims(results)
        assert {r["id"] for r in records} == {
            "concurrent.group_commit_speedup",
            "concurrent.fsyncs_per_commit.1w",
            "concurrent.fsyncs_per_commit.4w",
            "concurrent.batch_occupancy.1w",
            "concurrent.batch_occupancy.4w",
        }
        # Batching arithmetic holds at any size; the speedup and the
        # fsync saving are timed claims, judged by bench-concurrent.
        assert all(r["held"] for r in records if not r["timing"])
        assert concurrent.fsync_seconds() > 0


class TestAblationBaselines:
    def test_rehash_equals_combine(self):
        import random

        from repro.bench.ablations import rehash_update
        from repro.core import IndexManager, apply_text_updates
        from repro.workloads import dataset, random_text_updates

        xml = dataset("XMark1").build(SCALE)
        left = IndexManager(typed=())
        left.load("x", xml)
        right = IndexManager(typed=())
        right.load("x", xml)
        updates = random_text_updates(
            left.store.document("x"), 5, random.Random(3)
        )
        for manager in (left, right):
            for nid, text in updates:
                manager.store.update_text(nid, text)
        apply_text_updates(left.store, [n for n, _ in updates], left.indexes)
        rehash_update(right.store, right.string_index, [n for n, _ in updates])
        assert left.string_index.hash_of == right.string_index.hash_of

    def test_refsm_equals_sct(self):
        import random

        from repro.bench.ablations import refsm_update
        from repro.core import IndexManager, apply_text_updates
        from repro.workloads import dataset, random_text_updates

        xml = dataset("XMark1").build(SCALE)
        left = IndexManager(string=False, typed=("double",))
        left.load("x", xml)
        right = IndexManager(string=False, typed=("double",))
        right.load("x", xml)
        updates = random_text_updates(
            left.store.document("x"), 5, random.Random(4)
        )
        for manager in (left, right):
            for nid, text in updates:
                manager.store.update_text(nid, text)
        apply_text_updates(left.store, [n for n, _ in updates], left.indexes)
        refsm_update(
            right.store, right.typed_index("double"), [n for n, _ in updates]
        )
        assert (
            left.typed_index("double").fragment_of_node
            == right.typed_index("double").fragment_of_node
        )


class TestAsciiPlot:
    def test_empty(self):
        from repro.bench.plot import ascii_plot

        assert ascii_plot({}) == "(no data)"

    def test_markers_and_legend(self):
        from repro.bench.plot import ascii_plot

        out = ascii_plot({"a": [(1, 1), (2, 2)], "b": [(1, 2)]})
        assert "o=a" in out and "x=b" in out
        assert "o" in out and "x" in out

    def test_log_axes(self):
        from repro.bench.plot import ascii_plot

        out = ascii_plot(
            {"s": [(1, 1), (10, 100), (100, 10000)]},
            log_x=True,
            log_y=True,
        )
        assert "1e" in out

    def test_single_point(self):
        from repro.bench.plot import ascii_plot

        out = ascii_plot({"s": [(5, 5)]})
        assert "o" in out

    def test_figure_plot_helpers(self):
        from repro.workloads import dataset

        series = figure10.measure_dataset(
            "XMark1", dataset("XMark1").build(SCALE), "string",
            batches=(1, 10), repeats=1,
        )
        plot = figure10.format_plot([series], "string")
        assert "legend" in plot
        results = figure11.run(scale=SCALE)
        assert "legend" in figure11.format_plot(results)
