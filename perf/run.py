"""``python -m perf.run --workload W --seed S --seconds N [--trace 1]``.

Sets up, warms up, oracle-checks, runs the measured passes, prints every
metric by name with its unit and the attempted/failed counts, writes the
per-pass values to ``perf/out/run-<workload>.json`` and ends with one
JSON line for the driver.  Any wrong answer or failed operation makes
the exit code non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from perf import OUT, contract, measure
from perf.workloads import run_workload


def _parse(argv, workloads):
    parser = argparse.ArgumentParser(prog="python -m perf.run",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    bench = contract()
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    args = _parse(argv, list(whys))
    core = measure.pin_to_one_core()
    env = measure.environment(args.seed, core)
    env["calib_ms_start"] = measure.calib_ms()
    if args.trace:
        from perf.layers import traced_run

        outcome = traced_run(args.workload, args.seed, args.seconds)
    else:
        outcome = run_workload(args.workload, args.seed, args.seconds)
    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if args.trace else "end_to_end"]}
    env["calib_ms_end"] = measure.calib_ms()
    if "bench.calib_ms" in units:
        outcome.metrics["bench.calib_ms"] = env["calib_ms_end"]

    missing = sorted(set(units) - set(outcome.metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    metrics = {name: {"value": outcome.metrics[name], "unit": unit}
               for name, unit in units.items()}
    print(f"workload {args.workload}  seed {args.seed}  "
          f"passes {len(outcome.per_pass)}  core {core}")
    for name, entry in metrics.items():
        print(f"{name:44s} {entry['value']:16.6g} {entry['unit']}")
    if not args.trace:
        for name, value in outcome.ungated.items():
            print(f"{name:44s} {value:16.6g} (median over passes, no bound)")
    print(f"ops_attempted {outcome.attempted}  ops_failed {outcome.failed}")

    os.makedirs(OUT, exist_ok=True)
    kind = "trace-summary" if args.trace else "run"
    with open(os.path.join(OUT, f"{kind}-{args.workload}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "why": whys[args.workload],
                   "environment": env, "metrics": metrics,
                   "ungated": outcome.ungated,
                   "ops_attempted": outcome.attempted,
                   "ops_failed": outcome.failed,
                   "per_pass": outcome.per_pass, "setups": outcome.setups,
                   "counters": outcome.counters, "notes": outcome.notes},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    correct = outcome.failed == 0
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
