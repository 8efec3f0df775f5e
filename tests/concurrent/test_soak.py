"""Bounded randomized soak (``make stress``).

Runs the differential reader/writer workload for a wall-clock budget
taken from ``REPRO_STRESS_SECONDS`` (skipped when unset/0, so the
plain unit run stays fast).  ``REPRO_STRESS_SEED`` pins the
interleaving seed; both the seed and the failing thread slot are part
of any failure message, so a red soak is replayable with::

    REPRO_STRESS_SECONDS=30 REPRO_STRESS_SEED=<seed> \
        python -m pytest tests/concurrent/test_soak.py -q
"""

import os

import pytest

from repro.storage import groupcommit

from .harness import run_stress

SECONDS = float(os.environ.get("REPRO_STRESS_SECONDS", "0"))
SEED = int(os.environ.get("REPRO_STRESS_SEED", "777"))

pytestmark = pytest.mark.skipif(
    SECONDS <= 0,
    reason="set REPRO_STRESS_SECONDS (e.g. via `make stress`) to run",
)


def test_soak(tmp_path, monkeypatch):
    # Split the budget between a flush-durability phase (high update
    # rate, maximum index churn) and an fsync group-commit phase
    # (constant leader elections under the readers).
    half = SECONDS / 2
    flush = run_stress(
        str(tmp_path / "flush"), seed=SEED, readers=3, writers=3,
        duration=half,
    )
    monkeypatch.setattr(groupcommit, "BATCH_MAX", 8)
    fsync = run_stress(
        str(tmp_path / "fsync"), seed=SEED + 1, readers=3, writers=3,
        duration=half, sync="fsync",
    )
    print(
        f"soak ok (seed {SEED}): flush phase {flush['checks']} checks /"
        f" {flush['updates']} updates; fsync phase {fsync['checks']}"
        f" checks / {fsync['updates']} updates"
    )
