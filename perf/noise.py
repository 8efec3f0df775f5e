"""``python -m perf.noise --runs 5``: how much the metrics move by themselves.

Runs every workload ``--runs`` times on the checked-out commit, in
alternating workload order so drift hits all of them alike, and reports
per end-to-end metric x workload

* ``range``  - (max - min) / median of the runs, and
* ``iqr``    - (Q3 - Q1) / median with ``statistics.quantiles(n=4)``,
  the spread the driver computes over ten seeds.

The table goes to ``perf/noise.json``, together with the medians of the
odd and the even runs (two interleaved sets) and their distance.  With
``--write-bounds`` each metric's bound in ``BENCHMARK.json`` becomes the
larger of 3 x its widest iqr (the driver wants every spread below a
third of its bound) and 1.5 x its widest range (the issue's rule: one
run in a slow spell must not look like a regression), but no less than
its floor (10 % for a timing) and no more than :data:`CAP`, the 25 %
the benchmark contract allows.  A metric whose
widest iqr is above the cap cannot keep any bound and is listed for
demotion to the per-layer set; one above a third of the cap is flagged:
its bound is wider than the regression a reader would like it to catch.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from perf import OUT, ROOT, contract

#: No bound goes below these shares of the median: one quiet noise run
#: says little about the next hour on a shared box ...
TIMING_FLOOR = 0.10
#: ... nor above this, the contract's ceiling for a bound.
CAP = 0.25
#: The contract wants the largest bound on the set-up time.
FLOORS = {"peak_rss_mb": 0.05, "disk_bytes_per_xml_byte": 0.01,
          "setup_s": CAP}


def run_once(workload: str, seed: int, seconds: float) -> dict[str, float]:
    done = subprocess.run(
        [sys.executable, "-m", "perf.run", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n"
                           f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    values = {name: entry["value"]
              for name, entry in result["metrics"].items()}
    # The pass statistics that carry no bound, from the run's own file.
    with open(os.path.join(OUT, f"run-{workload}.json"),
              encoding="utf-8") as fh:
        values.update(json.load(fh)["ungated"])
    return values


def spreads(values: list[float]) -> dict[str, float]:
    centre = statistics.median(values)
    out = {"median": centre,
           "range": (max(values) - min(values)) / centre if centre else 0.0}
    if len(values) >= 4:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        out["iqr"] = (q3 - q1) / centre if centre else 0.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perf.noise")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first run")
    parser.add_argument("--same-seed", action="store_true",
                        help="one seed for every run (default: run i "
                             "uses seed + i, as the driver varies it)")
    parser.add_argument("--write-bounds", action="store_true")
    args = parser.parse_args(argv)

    bench = contract()
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    gated = [m["name"] for m in bench["end_to_end"]]

    samples: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    wall: dict[str, list[float]] = {w: [] for w in workloads}
    for run in range(args.runs):
        order = workloads if run % 2 == 0 else workloads[::-1]
        for workload in order:
            seed = args.seed if args.same_seed else args.seed + run
            started = time.perf_counter()
            values = run_once(workload, seed, seconds)
            wall[workload].append(round(time.perf_counter() - started, 1))
            for metric, value in values.items():
                samples[workload].setdefault(metric, []).append(value)
            print(f"run {run + 1}/{args.runs} {workload} seed {seed} done "
                  f"in {wall[workload][-1]} s", flush=True)

    table = {w: {m: dict(spreads(v), values=v,
                         set_a=statistics.median(v[0::2]),
                         set_b=statistics.median(v[1::2] or v))
                 for m, v in ms.items()}
             for w, ms in samples.items()}
    with open(os.path.join(ROOT, "perf", "noise.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"runs": args.runs, "seconds": seconds,
                   "seed": args.seed, "same_seed": args.same_seed,
                   "wall_s": wall, "table": table},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")

    print(f"\n{'metric':26s}" + "".join(f"{w:>24s}" for w in workloads))
    demote = []
    for metric in gated:
        cells = []
        for workload in workloads:
            row = table[workload][metric]
            cells.append(f"{100 * row['range']:6.1f}% / "
                         f"{100 * row.get('iqr', float('nan')):5.1f}%")
        widest = max(table[w][metric].get("iqr", table[w][metric]["range"])
                     for w in workloads)
        widest_range = max(table[w][metric]["range"] for w in workloads)
        bound = min(CAP, max(FLOORS.get(metric, TIMING_FLOOR), 3 * widest,
                             1.5 * widest_range))
        flag = f"  bound {100 * bound:.0f}%"
        if widest > CAP:
            demote.append(metric)
            flag += " (spread > cap: cannot be gated)"
        elif 3 * widest > CAP:
            flag += " (spread > cap / 3)"
        print(f"{metric:26s}" + "".join(f"{c:>24s}" for c in cells) + flag)
        if args.write_bounds:
            for entry in bench["end_to_end"]:
                if entry["name"] == metric:
                    entry["bound"] = math.ceil(100 * bound) / 100
    for metric in sorted(set().union(*samples.values()) - set(gated)):
        cells = [f"{100 * table[w][metric]['range']:6.1f}% / "
                 f"{100 * table[w][metric].get('iqr', float('nan')):5.1f}%"
                 if metric in table[w] else "-" for w in workloads]
        print(f"{metric:26s}" + "".join(f"{c:>24s}" for c in cells)
              + "  no bound")
    print("(range / iqr, each as a share of the median)")
    if demote:
        print("cannot be gated, move to per_layer:", ", ".join(demote))

    print(f"\nset A (odd runs) against set B (even runs), median against "
          f"median, as a share of A\n{'metric':26s}"
          + "".join(f"{w:>24s}" for w in workloads))
    for metric in gated:
        cells = []
        for workload in workloads:
            row = table[workload][metric]
            drift = (row["set_b"] - row["set_a"]) / row["set_a"]
            cells.append(f"{row['set_a']:.4g} {100 * drift:+5.1f}%")
        print(f"{metric:26s}" + "".join(f"{c:>24s}" for c in cells))
    if args.write_bounds:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(bench, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
