"""The paper's evaluation as one checked artefact (``make paper``).

Runs every driver — Table 1, Figures 9-11, the ablations — at
``REPRO_BENCH_SCALE``, prints each driver's report and claims, and
writes ``PAPER_RESULTS.json``: per driver its results and its printed
report, plus every claim record.  Exits 1 when any claim does not
hold::

    python -m repro.bench.paper
"""

from __future__ import annotations

import dataclasses

from ..workloads import bench_scale
from . import ablations, figure9, figure10, figure11, table1
from .harness import print_claims
from .report import emit

__all__ = ["DRIVERS", "main"]

DRIVERS = {
    "table1": table1,
    "figure9": figure9,
    "figure10": figure10,
    "figure11": figure11,
    "ablations": ablations,
}

JSON_PATH = "PAPER_RESULTS.json"


def _plain(value):
    """Driver results as JSON-ready data."""
    if dataclasses.is_dataclass(value):
        return dataclasses.asdict(value)
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_plain(item) for item in value]
    return value


def main() -> int:
    scale = bench_scale()
    drivers: dict[str, dict] = {}
    records: list[dict] = []
    for name, module in DRIVERS.items():
        result = module.run(scale)
        text = module.report(result)
        claims = module.claims(result)
        print(text)
        print_claims(claims)
        print()
        drivers[name] = {"report": text.splitlines(),
                         "results": _plain(result)}
        records += claims
    failed = [r["id"] for r in records if not r["held"]]
    emit(JSON_PATH, "paper", {
        "drivers": drivers, "claims": records, "failed": failed,
    }, workload="Table 1, Figures 9-11 and the ablations over the eight "
                "catalog corpora", config={"scale": scale})
    print(f"{len(records) - len(failed)}/{len(records)} claims hold"
          f"{': failed ' + ', '.join(failed) if failed else ''}; "
          f"wrote {JSON_PATH}")
    return int(bool(failed))


if __name__ == "__main__":
    raise SystemExit(main())
