"""``tools/pairs.py`` on canned benchmark output (no benchmark is run)."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).parent.parent
_spec = importlib.util.spec_from_file_location(
    "pairs_tool", ROOT / "tools" / "pairs.py"
)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

METRICS = [
    {"name": "range_p50_us", "unit": "us", "better": "lower", "bound": 0.25},
    {"name": "query_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
]


def stdout_of(range_us, per_s, failed=0):
    """What a run prints: human-readable lines, then the JSON line."""
    result = {
        "correct": failed == 0, "attempted": 100, "failed": failed,
        "metrics": {
            "range_p50_us": {"value": range_us, "unit": "us"},
            "query_per_s": {"value": per_s, "unit": "1/s"},
        },
    }
    return (
        "workload embed_read  seed 1  passes 17  core 1\n"
        f"range_p50_us   {range_us} us\n"
        "ops_attempted 100  ops_failed 0\n" + json.dumps(result) + "\n"
    )


def results(values, failed=0):
    return [pairs.final_json(stdout_of(a, b, failed)) for a, b in values]


def test_final_json_is_the_last_line():
    result = pairs.final_json(stdout_of(3000.0, 1000.0))
    assert pairs.values_of(result) == {
        "range_p50_us": 3000.0, "query_per_s": 1000.0,
    }
    with pytest.raises(ValueError):
        pairs.final_json("")
    with pytest.raises(ValueError):
        pairs.final_json("Traceback (most recent call last):\nboom\n")


def test_summary_counts_wins_by_direction_and_ties_for_neither():
    parent = results([(3000, 1000), (3100, 1000), (2900, 900), (3000, 950)])
    change = results([(900, 2000), (3100, 1000), (950, 850), (1000, 2100)])
    lower, higher = pairs.summarise(METRICS, parent, change)
    assert (lower["won"], lower["pairs"]) == (3, 4)  # one tie
    assert (higher["won"], higher["pairs"]) == (2, 4)  # one tie, one loss
    assert lower["parent_median"] == 3000
    assert lower["change_median"] == 975
    q1, q3 = lower["parent_quartiles"]
    assert 2900 <= q1 <= 3000 <= q3 <= 3100
    assert (lower["better"], lower["bound"]) == ("lower", 0.25)
    table = pairs.render([lower, higher])
    assert "range_p50_us" in table and "3/4" in table and "2/4" in table
    assert "lower" in table and "0.25" in table


def test_a_single_pair_has_degenerate_quartiles():
    (row, _other) = pairs.summarise(
        METRICS, results([(3000, 1000)]), results([(1000, 2000)])
    )
    assert row["parent_quartiles"] == (3000, 3000)
    assert row["won"] == 1


def test_failed_operations_are_counted_per_run():
    runs = results([(1, 1), (1, 1)]) + results([(1, 1)], failed=2)
    assert pairs.failed_runs(runs) == 1
    assert pairs.failed_runs(results([(1, 1)])) == 0


def test_pairs_alternate_which_side_runs_first(monkeypatch, capsys):
    calls = []

    def fake_run(command, cwd, workload, seed, seconds):
        calls.append((cwd, seed, seconds))
        value = 1000 if cwd == "change" else 3000
        return pairs.final_json(stdout_of(value, 1.0))

    monkeypatch.setattr(pairs, "run_once", fake_run)
    bench = {"command": ["python3", "-m", "perf.run"], "run_seconds": 8}
    parent, change = pairs.run_pairs(bench, "parent", "change", "embed_read", 3)
    assert [(cwd, seed) for cwd, seed, _s in calls] == [
        ("parent", 1), ("change", 1),
        ("change", 2), ("parent", 2),
        ("parent", 3), ("change", 3),
    ]
    assert {seconds for _c, _s, seconds in calls} == {8}
    assert [pairs.values_of(r)["range_p50_us"] for r in parent] == [3000] * 3
    assert [pairs.values_of(r)["range_p50_us"] for r in change] == [1000] * 3
    assert capsys.readouterr().out.count("pair ") == 6


def test_reads_the_repo_contract():
    bench = pairs.contract()
    assert bench["command"] and bench["run_seconds"]
    assert {"name", "better", "bound", "unit"} <= set(bench["end_to_end"][0])


def _verdicts(parent_values, change_values):
    """The ``range_p50_us`` (lower, bound 0.25) and ``query_per_s``
    (higher, bound 0.1) verdicts of two sides given as value pairs."""
    rows = pairs.summarise(
        METRICS, results(parent_values), results(change_values)
    )
    return [row["verdict"] for row in rows]


def test_verdict_claim_met_needs_nine_tenths_and_a_gap_past_the_iqr():
    parent = [(1000 + i, 100 + i / 10) for i in range(10)]
    change = [(700 + i, 130 + i / 10) for i in range(10)]
    assert _verdicts(parent, change) == ["claim met", "claim met"]
    # One pair lost on each metric: 9/10 still meets the claim ...
    change[0] = (1050, 99.5)
    assert _verdicts(parent, change) == ["claim met", "claim met"]
    # ... two do not.
    change[1] = (1060, 99.6)
    assert _verdicts(parent, change) == ["within bound", "within bound"]


def test_verdict_gap_inside_the_parents_spread_is_no_claim():
    # 10/10 wins, but by less than the parent's inter-quartile distance.
    parent = [(1000 + 40 * i, 100) for i in range(10)]
    change = [(990 + 40 * i, 100) for i in range(10)]
    assert _verdicts(parent, change)[0] == "within bound"


def test_verdict_worse_beyond_bound_in_either_direction():
    parent = [(1000, 100)] * 10
    change = [(1300, 89)] * 10  # +30 % latency, -11 % throughput
    assert _verdicts(parent, change) == [
        "worse beyond bound", "worse beyond bound",
    ]
    change = [(1200, 95)] * 10  # inside both bounds
    assert _verdicts(parent, change) == ["within bound", "within bound"]


def test_verdict_unresolved_when_the_spread_exceeds_the_bound():
    # Quartile distance ~45 % of the median, far wider than 25 %.
    parent = [(600 + 100 * i, 100) for i in range(10)]
    change = [(650 + 100 * i, 100) for i in range(10)]
    assert _verdicts(parent, change)[0] == "unresolved"
    # Unless every change run beats every parent run.
    change = [(100 + 10 * i, 100) for i in range(10)]
    assert _verdicts(parent, change)[0] == "claim met"
    change = [(550 - 40 * i, 100) for i in range(5)] + [(590, 100)] * 5
    assert _verdicts(parent, change)[0] == "within bound"


def test_workload_all_runs_every_workload(monkeypatch, capsys):
    bench = pairs.contract()
    names = [w["name"] for w in bench["workloads"]]
    assert pairs.workloads_of(bench, "all") == names
    assert pairs.workloads_of(bench, names[0]) == [names[0]]
    seen = []

    def fake_run(command, cwd, workload, seed, seconds):
        seen.append(workload)
        failed = int(cwd == "change" and workload == names[-1])
        return {"failed": failed, "attempted": 10, "metrics": {
            m["name"]: {"value": 1.0, "unit": m["unit"]}
            for m in bench["end_to_end"]}}

    monkeypatch.setattr(pairs, "run_once", fake_run)
    comparison = pairs.compare(bench, "parent", "change", names, 2)
    assert seen == [name for name in names for _ in range(4)]
    assert pairs.failed_runs(comparison["runs"]) == 2
    assert list(comparison["workloads"]) == names
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("== ")] == [
        f"== {name}: 2 pairs" for name in names
    ]
    assert out.count("within bound") == len(names) * len(bench["end_to_end"])


def test_out_writes_every_run_and_every_verdict(monkeypatch, tmp_path, capsys):
    """``--out`` holds each run, each workload's rows with verdicts and
    both revisions; ``--tables`` renders it without running anything."""
    bench = pairs.contract()
    names = [w["name"] for w in bench["workloads"]]

    def fake_run(command, cwd, workload, seed, seconds):
        fast = cwd == pairs.ROOT
        return {"failed": 0, "attempted": 10 + seed, "metrics": {
            m["name"]: {"value": (500.0 if fast else 1000.0) + seed,
                        "unit": m["unit"]}
            for m in bench["end_to_end"]}}

    answers = {("rev-parse", "abc"): "a" * 40, ("rev-parse", "HEAD"): "c" * 40,
               ("status", "--porcelain"): " M src/x.py"}
    monkeypatch.setattr(pairs, "git", lambda *args: answers[args])
    monkeypatch.setattr(pairs, "export", lambda rev, into: None)
    monkeypatch.setattr(pairs, "run_once", fake_run)
    out = tmp_path / "pairs.json"
    assert pairs.main(["--parent", "abc", "--workload", "all", "--pairs", "2",
                       "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert (report["parent"], report["change"], report["dirty"]) == (
        "a" * 40, "c" * 40, True)
    assert len(report["runs"]) == len(names) * 4
    first = report["runs"][0]
    assert {key: first[key] for key in
            ("workload", "pair", "seed", "side", "failed", "attempted")} == {
        "workload": names[0], "pair": 1, "seed": 1, "side": "parent",
        "failed": 0, "attempted": 11}
    assert set(first["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    assert list(report["workloads"]) == names
    for rows in report["workloads"].values():
        assert [row["name"] for row in rows] == [
            m["name"] for m in bench["end_to_end"]]
        assert {row["verdict"] for row in rows} == {"claim met"}
    capsys.readouterr()
    assert pairs.main(["--tables", str(out)]) == 0
    tables = capsys.readouterr().out
    assert "parent `aaaaaaa`, change `ccccccc` (uncommitted" in tables
    assert f"`{names[0]}`: 4 runs, 0 of 46 operations failed" in tables
    assert "| 2 | 1002 / 502 |" in tables
    assert "| 0.50 | 2/2 | claim met |" in tables
