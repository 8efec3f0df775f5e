"""The benchmark's own tests: ``python -m pytest perf -q``.

Outside the tier-1 ``testpaths`` on purpose: the smoke runs take about
two minutes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter

import pytest

from perf import ROOT, contract, engines, inputs, measure, tracing
from perf.workloads import (MIXED_DRAWS, READ_DRAWS, PassStats,
                            floor_metrics, pass_metrics)

BENCH = contract()
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert measure.percentile(values, 0.95) == 95
    assert measure.percentile(values, 0.99) == 99
    assert measure.percentile(values, 0.50) == 50
    assert measure.percentile([3, 1, 2], 0.5) == 2
    assert measure.percentile([7], 0.99) == 7
    # 0.95 * 60 is 57.00000000000001 in floats; the rank is still 57.
    assert measure.percentile(list(range(1, 61)), 0.95) == 57
    with pytest.raises(ValueError):
        measure.percentile([], 0.5)


def test_spread_pct():
    assert measure.spread_pct([90.0, 100.0, 110.0]) == pytest.approx(20.0)


def _synthetic_passes():
    cost = {"e0": 100e-6, "e1": 200e-6, "e2": 400e-6, "r": 5e-3, "f": 1e-3}
    texts = [inputs.Query("e0", "eq", "string"),
             inputs.Query("e1", "eq", "numeric"),
             inputs.Query("e2", "eq", "attribute"),
             inputs.Query("r", "range", "range"),
             inputs.Query("f", "fat", "fat")]
    sequence = texts[:3] * 2 + texts[3:]

    def one_pass(slowdown: float) -> PassStats:
        stats = PassStats()
        stats.reads = [(q, slowdown * cost[q.text]) for q in sequence]
        stats.updates = [(7, slowdown * 300e-6), (8, slowdown * 500e-6)]
        stats.cpu_s, stats.wall_s = slowdown * 8e-3, slowdown * 10e-3
        return stats

    quiet, noisy = one_pass(1.0), one_pass(1.6)
    quiet.reads[0] = (sequence[0], 9.0)     # one stalled read
    return sequence, [noisy, quiet, noisy]


def test_floor_metrics_use_each_operations_fastest_repetition():
    sequence, passes = _synthetic_passes()
    assert floor_metrics(passes, sequence) == {
        "eq_p50_us": pytest.approx(200.0),
        "range_p50_us": pytest.approx(5000.0),
        "fat_p50_us": pytest.approx(1000.0),
        "update_p50_us": pytest.approx(400.0)}


def test_pass_metrics_are_medians_of_real_pass_statistics():
    _sequence, passes = _synthetic_passes()
    seen = pass_metrics([stats.summary() for stats in passes])
    # Two of three passes ran 1.6 times slower; the median pass shows it.
    assert seen["query_p95_us"] == pytest.approx(1.6 * 5000.0)
    assert seen["query_per_s"] == pytest.approx(8 / (1.6 * 7.4e-3))
    assert seen["cpu_ms_per_op"] == pytest.approx(1.6 * 0.8)
    # The stalled read is the p95 and the p99 of the pass it hit.
    assert passes[1].summary()["query_p99_us"] == pytest.approx(9e6)


def test_self_time_subtracts_children():
    spans = [
        {"id": 0, "name": "op", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "call", "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "replay", "parent": 0, "start": 4.0, "end": 9.0},
        {"id": 3, "name": "stage", "parent": 2, "start": 5.0, "end": 7.0},
        {"id": 4, "name": "stage", "parent": 2, "start": 7.0, "end": 8.0},
    ]
    table = tracing.self_times(spans)
    assert table["op"]["self_s"] == pytest.approx(2.0)
    assert table["replay"]["self_s"] == pytest.approx(2.0)
    assert table["stage"] == {"count": 2, "total_s": pytest.approx(3.0),
                              "self_s": pytest.approx(3.0)}


def test_tracer_links_parent_and_trace():
    tracer = tracing.Tracer()
    with tracer.span("op", trace=tracer.new_trace()) as op:
        with tracer.span("child", op) as child:
            pass
    assert child["parent"] == op["id"] and child["trace"] == op["trace"] == 1
    assert op["start"] <= child["start"] <= child["end"] <= op["end"]


@pytest.fixture(scope="module")
def values():
    return inputs.CorpusValues(inputs.xmark_corpus())


def test_same_seed_same_ops(values):
    first = inputs.query_pool(values, 7)
    again = inputs.query_pool(values, 7)
    assert first == again
    assert (inputs.read_sequence(first, 7, READ_DRAWS)
            == inputs.read_sequence(again, 7, READ_DRAWS))
    nids = list(range(1000))
    assert (inputs.update_plan(nids, nids, 7, 100)
            == inputs.update_plan(nids, nids, 7, 100))


def test_two_seeds_do_equal_work(values):
    one, two = inputs.query_pool(values, 1), inputs.query_pool(values, 2)
    assert {q.text for q in one} != {q.text for q in two}
    assert (Counter((q.cls, q.shape) for q in one)
            == Counter((q.cls, q.shape) for q in two))
    assert Counter(q.cls for q in one) == {"eq": 40, "range": 16, "fat": 8}
    for draws in (READ_DRAWS, MIXED_DRAWS):
        a = inputs.read_sequence(one, 1, draws)
        b = inputs.read_sequence(two, 2, draws)
        assert Counter(q.cls for q in a) == Counter(q.cls for q in b)
    nids = list(range(1000))
    plans = [inputs.update_plan(nids, nids, seed, 100) for seed in (1, 2)]
    assert plans[0] != plans[1]
    assert [sum(u.numeric for u in plan) for plan in plans] == [25, 25]


def test_pool_literals_come_from_the_corpus(values):
    records = len(values.items)
    for query in inputs.query_pool(values, 3):
        low, high = inputs.class_row_limits(query.cls, records)
        assert 0 <= low < high
    # The range ladder is the same for every seed.
    assert len(set(inputs.RANGE_LADDER)) == inputs.RANGE_TEXTS


def test_server_child_shares_the_bench_core(tmp_path):
    before = os.sched_getaffinity(0)
    try:
        core = measure.pin_to_one_core()
        path = str(tmp_path / "db")
        engines.build_database(
            path, lambda: {"doc": inputs.generate_xmark(0.1, seed=11)})
        server = engines.Wire(path)
        server.start()  # raises unless every server thread is pinned too
        try:
            server.query_rows(engines.PROBE)
            masks = {frozenset(os.sched_getaffinity(int(tid)))
                     for tid in os.listdir(f"/proc/{server.proc.pid}/task")}
        finally:
            server.stop()
        assert masks == {frozenset({core})}
    finally:
        os.sched_setaffinity(0, before)


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "-m", "perf.run", "--workload", workload,
         "--seed", "5", "--seconds", "2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload):
    result = _run(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in BENCH["end_to_end"]]
    for metric in BENCH["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"] and entry["value"] > 0, metric
    # Each workload's idle layers really are idle during its passes.
    with open(os.path.join(ROOT, "perf", "out", f"run-{workload}.json"),
              encoding="utf-8") as fh:
        counters = json.load(fh)["counters"]
    if workload == "embed_read":
        assert counters.get("server.requests", 0) == 0
    if workload in ("embed_read", "wire_read"):
        assert counters.get("wal.appends", 0) == 0
        assert counters["query.plan_cache.misses"] == 0
    if workload == "wire_mixed":
        assert counters["query.plan_cache.hits"] == 0
        assert counters["wal.appends"] > 0


def test_traced_run_reports_every_layer_metric():
    result = _run("wire_read", trace=1)
    assert result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in BENCH["per_layer"]]
    for metric in BENCH["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    with open(os.path.join(ROOT, "perf", "out", "trace-wire_read.json"),
              encoding="utf-8") as fh:
        trace = json.load(fh)
    assert trace["spans"] and "client.query_rows" in trace["self_times"]
    assert trace["metrics"]["core.manager.plan_cache_hit_ratio"] > 0.9
