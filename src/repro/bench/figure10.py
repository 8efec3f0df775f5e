"""Figure 10 — update time vs. number of updated text nodes.

Per dataset and per batch size (1 ... 10^4 by default; the paper's
x-axis reaches 10^5), measure the time of one maintenance pass over a
random batch of text-node updates, separately for the string index and
the double index.  The paper's curves are flat for small batches
(tens of ms) and stay under ~400 ms at 10^6 updates on 2 GB documents;
the reproduction's shape — sub-linear growth, double cheaper than
string — is what :func:`claims` checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..core.manager import IndexManager
from ..workloads import DATASETS, bench_scale, random_text_updates
from .harness import claim, measure_seconds, print_claims, render_table

__all__ = [
    "UpdateSeries", "run", "format_report", "report", "claims", "main",
]

DEFAULT_BATCHES = (1, 10, 100, 1000, 10000)


@dataclass
class UpdateSeries:
    """Update timings for one dataset and one index kind."""

    name: str
    index_kind: str  # "string" | "double"
    nodes: int
    #: batch size -> average seconds per maintenance pass
    timings: dict[int, float] = field(default_factory=dict)


def _manager_for(kind: str, name: str, xml: str) -> IndexManager:
    if kind == "string":
        manager = IndexManager(string=True, typed=())
    else:
        manager = IndexManager(string=False, typed=("double",))
    manager.load(name, xml)
    return manager


def measure_dataset(
    name: str,
    xml: str,
    kind: str,
    batches: tuple[int, ...] = DEFAULT_BATCHES,
    repeats: int = 5,
    seed: int = 7,
) -> UpdateSeries:
    """Measure maintenance time per batch size for one dataset/index."""
    manager = _manager_for(kind, name, xml)
    doc = manager.store.document(name)
    rng = random.Random(seed)
    series = UpdateSeries(name=name, index_kind=kind, nodes=len(doc))
    for batch in batches:
        def one_pass():
            updates = random_text_updates(doc, batch, rng)
            return manager.update_texts(updates)

        seconds, _ = measure_seconds(one_pass, repeats)
        series.timings[batch] = seconds
    return series


def run(
    scale: float | None = None,
    kinds: tuple[str, ...] = ("string", "double"),
    batches: tuple[int, ...] = DEFAULT_BATCHES,
    repeats: int = 5,
) -> list[UpdateSeries]:
    scale = bench_scale() if scale is None else scale
    results = []
    for name, spec in DATASETS.items():
        xml = spec.build(scale)
        for kind in kinds:
            results.append(
                measure_dataset(name, xml, kind, batches, repeats)
            )
    return results


def format_report(results: list[UpdateSeries]) -> str:
    batches = sorted({b for r in results for b in r.timings})
    headers = ["Data", "Index", "Nodes"] + [f"{b} upd (ms)" for b in batches]
    rows = []
    for r in results:
        rows.append(
            [r.name, r.index_kind, f"{r.nodes:,}"]
            + [
                f"{r.timings[b] * 1000:.1f}" if b in r.timings else "-"
                for b in batches
            ]
        )
    return render_table(headers, rows)


def format_plot(results: list[UpdateSeries], kind: str) -> str:
    """ASCII rendition of one of the figure's two panels."""
    from .plot import ascii_plot

    series = {
        r.name: [(b, t * 1000) for b, t in sorted(r.timings.items())]
        for r in results
        if r.index_kind == kind
    }
    return ascii_plot(
        series,
        log_x=True,
        x_label="updated nodes",
        y_label=f"ms ({kind} index)",
    )


def claims(results: list[UpdateSeries]) -> list[dict]:
    """Timed: 1000 updates in one pass cost far less than 1000 single
    passes (shared ancestors recompute once), and the double index
    updates faster than the string index in aggregate."""
    records = [
        claim(f"fig10.sublinear.{r.name}.{r.index_kind}",
              r.timings[1000] / r.timings[1], "<", 400, timing=True)
        for r in results
    ]
    total = {"string": 0.0, "double": 0.0}
    for r in results:
        total[r.index_kind] += sum(r.timings.values())
    records.append(
        claim("fig10.double_cheaper_to_update",
              total["double"] / total["string"], "<", 1, timing=True)
    )
    return records


def report(results: list[UpdateSeries]) -> str:
    return "\n\n".join(
        ["Figure 10: update time vs number of updated text nodes\n"
         + format_report(results)]
        + [format_plot(results, kind) for kind in ("string", "double")]
    )


def main() -> int:
    results = run()
    print(report(results))
    return print_claims(claims(results))


if __name__ == "__main__":
    raise SystemExit(main())
