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
