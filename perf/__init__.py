"""The repo's one benchmark (see perf/README.md and BENCHMARK.json).

The engine is not installed in the benchmark environment; it is
imported from the checkout's own ``src/``.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space for databases, traces and per-run result files
#: (ignored by git; the benchmark writes nowhere else).
OUT = os.path.join(ROOT, "perf", "out")

if SRC not in sys.path:
    sys.path.insert(0, SRC)


def contract() -> dict:
    """``BENCHMARK.json``: the one list of the workloads and of the
    metrics a run must print, with their units, directions and bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)
