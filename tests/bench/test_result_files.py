"""Every committed result file carries one envelope: the one
:func:`repro.bench.report.emit` stamps (``schema_version``, ``bench``,
``workload``, ``config``), with ``bench`` naming the file; and the
committed ``PAPER_RESULTS.json`` is a run of every driver ``make
paper`` runs."""

import json
import pathlib

import pytest

from repro.bench.paper import DRIVERS
from repro.bench.report import SCHEMA_VERSION

ROOT = pathlib.Path(__file__).resolve().parents[2]
FILES = sorted(ROOT.glob("BENCH_*.json")) + [ROOT / "PAPER_RESULTS.json"]


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.name)
def test_committed_result_file_carries_the_envelope(path):
    data = json.loads(path.read_text(encoding="utf-8"))
    assert data.get("schema_version") == SCHEMA_VERSION
    assert {"bench", "workload", "config"} <= set(data)
    assert path.name == ("PAPER_RESULTS.json" if data["bench"] == "paper"
                         else f"BENCH_{data['bench']}.json")


def test_committed_paper_results_cover_every_driver():
    data = json.loads((ROOT / "PAPER_RESULTS.json").read_text(
        encoding="utf-8"))
    assert sorted(data["drivers"]) == sorted(DRIVERS)
