"""``python tools/pairs.py --parent REV --workload W|all [--pairs 10] [--out FILE]``

Alternating parent/change runs of the repo's benchmark, the evidence a
PR that claims a gain has to show (ROADMAP "rules carried over").

The parent commit is exported with ``git archive`` into a temporary
directory; the change is the working tree the script runs from.  Pair
``i`` runs the ``command`` of ``BENCHMARK.json`` on both sides with
``--workload W --seed i --seconds <run_seconds>``, the parent first in
odd pairs and the change first in even ones, and reads the JSON line
each run ends with.  ``--workload all`` does this for every workload of
``BENCHMARK.json`` in turn.  Every run is printed as it finishes; the
table at the end of each workload gives, per end-to-end metric: both
medians, both pairs of quartiles, how many pairs the change won (ties
count for neither side), the metric's ``better``/``bound`` from
``BENCHMARK.json`` and a verdict (:func:`verdict`).  The exit code is
non-zero if any run reported ``failed > 0``.

``--out FILE`` also writes everything as one JSON document: every run
and each workload's summary rows with their verdicts (:func:`compare`),
the parent revision, the change's ``HEAD`` and whether its tree was
dirty (:func:`revisions`).  ``python tools/pairs.py --tables FILE`` prints the
Markdown tables of such a file (:func:`markdown`) and runs nothing, so
a write-up quotes the file rather than a terminal.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def contract(root: str = ROOT) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def final_json(stdout: str) -> dict:
    """The JSON line a benchmark run ends with:
    ``{"correct", "attempted", "failed", "metrics"}``."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the run printed nothing")
    return json.loads(lines[-1])


def values_of(result: dict) -> dict[str, float]:
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(row: dict, ours: list[float], theirs: list[float]) -> str:
    """What the pairs of one metric show (choosing-metrics §6 and §8):

    * ``worse beyond bound`` — the change's median is worse than the
      parent's by more than the metric's bound;
    * ``claim met`` — the change won at least nine tenths of the pairs
      and its median is better than the parent's by more than the
      parent's inter-quartile distance;
    * ``unresolved`` — the run-to-run spread (either side's quartile
      distance over its median) is wider than the bound, and not every
      run of the change reads better than every run of the parent;
    * ``within bound`` — otherwise: no worse than the bound allows.
    """
    lower = row["better"] == "lower"
    parent, change = row["parent_median"], row["change_median"]
    gain = (parent - change) if lower else (change - parent)
    if -gain > row["bound"] * abs(parent):
        return "worse beyond bound"
    q1, q3 = row["parent_quartiles"]
    if 10 * row["won"] >= 9 * row["pairs"] and gain > q3 - q1:
        return "claim met"
    spread = max(
        (high - low) / (abs(median) or 1.0)
        for (low, high), median in (
            (row["parent_quartiles"], parent),
            (row["change_quartiles"], change),
        )
    )
    all_better = (
        max(ours) < min(theirs) if lower else min(ours) > max(theirs)
    )
    if spread > row["bound"] and not all_better:
        return "unresolved"
    return "within bound"


def summarise(
    metrics: list[dict], parent: list[dict], change: list[dict]
) -> list[dict]:
    """One row per end-to-end metric of ``BENCHMARK.json`` over the
    paired results (``parent[i]`` and ``change[i]`` ran the same seed)."""
    rows = []
    for metric in metrics:
        name = metric["name"]
        ours = [values_of(result)[name] for result in change]
        theirs = [values_of(result)[name] for result in parent]
        lower = metric["better"] == "lower"
        won = sum(
            (mine < other) if lower else (mine > other)
            for mine, other in zip(ours, theirs)
        )
        row = {
            "name": name,
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "parent_median": statistics.median(theirs),
            "parent_quartiles": _quartiles(theirs),
            "change_median": statistics.median(ours),
            "change_quartiles": _quartiles(ours),
            "won": won,
            "pairs": len(ours),
        }
        row["verdict"] = verdict(row, ours, theirs)
        rows.append(row)
    return rows


def render(rows: list[dict]) -> str:
    lines = [
        f"{'metric':26s} {'parent median [q1, q3]':>34s} "
        f"{'change median [q1, q3]':>34s} {'won':>6s}  better  bound  verdict"
    ]
    for row in rows:
        sides = [
            f"{row[f'{side}_median']:10.6g} "
            f"[{row[f'{side}_quartiles'][0]:.6g}, "
            f"{row[f'{side}_quartiles'][1]:.6g}]"
            for side in ("parent", "change")
        ]
        lines.append(
            f"{row['name']:26s} {sides[0]:>34s} {sides[1]:>34s} "
            f"{row['won']:3d}/{row['pairs']:<2d}  {row['better']:6s}  "
            f"{row['bound']:<5g}  {row['verdict']}"
        )
    return "\n".join(lines)


def failed_runs(results: list[dict]) -> int:
    return sum(1 for result in results if result["failed"] > 0)


def run_once(command: list[str], cwd: str, workload: str, seed: int,
             seconds: float) -> dict:
    done = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds)],
        cwd=cwd, capture_output=True, text=True, timeout=1800)
    try:
        return final_json(done.stdout)
    except ValueError as exc:
        raise RuntimeError(
            f"{workload} seed {seed} in {cwd} gave no result ({exc}):\n"
            f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}") from exc


def run_pairs(bench: dict, parent_dir: str, change_dir: str, workload: str,
              pairs: int) -> tuple[list[dict], list[dict]]:
    """Run ``pairs`` alternating pairs; returns the parent's and the
    change's results, index-aligned by pair."""
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    dirs = {"parent": parent_dir, "change": change_dir}
    for pair in range(1, pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            result = run_once(bench["command"], dirs[side], workload, pair,
                              bench["run_seconds"])
            results[side].append(result)
            print(f"{workload} pair {pair:2d} {side:6s} seed {pair} "
                  f"failed {result['failed']}/{result['attempted']} "
                  + json.dumps(values_of(result)), flush=True)
    return results["parent"], results["change"]


def workloads_of(bench: dict, choice: str) -> list[str]:
    """The workloads ``--workload choice`` names: one, or ``all``."""
    names = [w["name"] for w in bench["workloads"]]
    return names if choice == "all" else [choice]


def run_records(workload: str, parent: list[dict],
                change: list[dict]) -> list[dict]:
    """One flat record per run of :func:`run_pairs`' results."""
    records = []
    for pair, results in enumerate(zip(parent, change), start=1):
        for side, result in zip(("parent", "change"), results):
            records.append({
                "workload": workload, "pair": pair, "seed": pair,
                "side": side, "failed": result["failed"],
                "attempted": result["attempted"],
                "metrics": values_of(result),
            })
    return records


def compare(bench: dict, parent_dir: str, change_dir: str,
            workloads: list[str], pairs: int) -> dict:
    """Pairs for each workload, a summary table after each; returns
    ``{"runs": [run records], "workloads": {workload: summary rows}}``."""
    runs: list[dict] = []
    summaries: dict[str, list[dict]] = {}
    for workload in workloads:
        parent, change = run_pairs(bench, parent_dir, change_dir, workload,
                                   pairs)
        rows = summarise(bench["end_to_end"], parent, change)
        print(f"== {workload}: {pairs} pairs")
        print(render(rows), flush=True)
        runs += run_records(workload, parent, change)
        summaries[workload] = rows
    return {"runs": runs, "workloads": summaries}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def revisions(parent: str) -> dict:
    """The two sides of a comparison: the parent commit, the change's
    ``HEAD`` and whether the working tree (what actually runs as the
    change) differs from it."""
    return {
        "parent": git("rev-parse", parent),
        "change": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain")),
    }


def _cell(value: float) -> str:
    return f"{value:.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def markdown(report: dict) -> str:
    """The Markdown tables of a ``--out`` report: per workload, each
    pair's parent / change values, then the summary rows."""
    dirty = " (uncommitted changes on top)" if report["dirty"] else ""
    lines = [f"parent `{report['parent'][:7]}`, change "
             f"`{report['change'][:7]}`{dirty}"]
    for workload, rows in report["workloads"].items():
        names = [row["name"] for row in rows]
        runs = [run for run in report["runs"] if run["workload"] == workload]
        by_pair = {(run["pair"], run["side"]): run for run in runs}
        failed = sum(run["failed"] for run in runs)
        attempted = sum(run["attempted"] for run in runs)
        lines += [
            "", f"`{workload}`: {len(runs)} runs, {failed} of {attempted} "
            "operations failed; parent / change:", "",
            "| pair | " + " | ".join(f"`{name}`" for name in names) + " |",
            "|---:|" + "---:|" * len(names),
        ]
        for pair in sorted({run["pair"] for run in runs}):
            sides = by_pair[pair, "parent"], by_pair[pair, "change"]
            lines.append(f"| {pair} | " + " | ".join(
                " / ".join(_cell(run["metrics"][name]) for run in sides)
                for name in names) + " |")
        lines += [
            "",
            "| metric | parent median [q1–q3] | change median [q1–q3] "
            "| change/parent | pairs won | verdict |",
            "|---|---:|---:|---:|---:|---|",
        ]
        for row in rows:
            sides = [
                f"{_cell(row[f'{side}_median'])} "
                f"[{_cell(row[f'{side}_quartiles'][0])}–"
                f"{_cell(row[f'{side}_quartiles'][1])}]"
                for side in ("parent", "change")
            ]
            ratio = row["change_median"] / (row["parent_median"] or 1.0)
            lines.append(
                f"| `{row['name']}` | {sides[0]} | {sides[1]} | {ratio:.2f} "
                f"| {row['won']}/{row['pairs']} | {row['verdict']} |")
    return "\n".join(lines)


def export(rev: str, into: str) -> None:
    """The committed files of ``rev``, extracted into ``into``."""
    os.makedirs(into)
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             cwd=ROOT, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", into], input=archive.stdout,
                   check=True)


def main(argv=None) -> int:
    bench = contract()
    parser = argparse.ArgumentParser(prog="python tools/pairs.py",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="revision of the parent commit")
    parser.add_argument("--workload",
                        choices=[w["name"] for w in bench["workloads"]]
                        + ["all"])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", metavar="FILE",
                        help="also write every run and summary as JSON")
    parser.add_argument("--tables", metavar="FILE",
                        help="print the Markdown tables of an --out file "
                             "and run nothing")
    args = parser.parse_args(argv)
    if args.tables:
        with open(args.tables, encoding="utf-8") as fh:
            print(markdown(json.load(fh)))
        return 0
    if not (args.parent and args.workload):
        parser.error("--parent and --workload are required")
    sides = revisions(args.parent)
    with tempfile.TemporaryDirectory(prefix="pairs-") as scratch:
        parent_dir = os.path.join(scratch, "parent")
        export(args.parent, parent_dir)
        comparison = compare(bench, parent_dir, ROOT,
                             workloads_of(bench, args.workload), args.pairs)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({**sides, **comparison}, fh, indent=1)
            fh.write("\n")
    failed = failed_runs(comparison["runs"])
    if failed:
        print(f"{failed} run(s) reported failed operations")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
