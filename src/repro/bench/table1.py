"""Table 1 — dataset statistics, paper vs. measured.

Regenerates the paper's Table 1 for the eight catalog datasets: size,
total nodes, text (value-leaf) nodes, potential-double values and
non-leaf potential doubles, next to the paper's reported numbers.
:func:`claims` pins the node mix every other experiment depends on.
"""

from __future__ import annotations

from ..workloads import DATASETS, DatasetStats, bench_scale, collect_stats
from ..xmldb import Store
from .harness import claim, format_bytes, print_claims, render_table

__all__ = ["run", "format_report", "report", "claims", "main"]


def run(scale: float | None = None) -> dict[str, DatasetStats]:
    """Build all datasets and compute their Table 1 rows."""
    scale = bench_scale() if scale is None else scale
    stats: dict[str, DatasetStats] = {}
    for name, spec in DATASETS.items():
        store = Store()
        doc = store.add_document(name, spec.build(scale))
        stats[name] = collect_stats(doc)
    return stats


def format_report(stats: dict[str, DatasetStats]) -> str:
    headers = [
        "Data", "Size", "Nodes", "Text", "Text% (paper)",
        "Doubles", "Dbl% (paper)", "non-leaf (paper)",
    ]
    rows = []
    for name, measured in stats.items():
        spec = DATASETS[name]
        rows.append(
            [
                name,
                format_bytes(measured.size_bytes),
                f"{measured.total_nodes:,}",
                f"{measured.text_nodes:,}",
                f"{measured.text_fraction:.0%} ({spec.paper_text_pct}%)",
                f"{measured.double_values:,}",
                f"{measured.double_fraction:.1%} ({spec.paper_double_pct}%)",
                f"{measured.non_leaf_doubles} ({spec.paper_non_leaf})",
            ]
        )
    return render_table(headers, rows)


def claims(stats: dict[str, DatasetStats]) -> list[dict]:
    """Text and potential-double fractions near the paper's; non-leaf
    doubles exactly where the paper has them."""
    records = []
    for name, measured in stats.items():
        spec = DATASETS[name]
        records += [
            claim(f"table1.text_pct.{name}",
                  abs(measured.text_fraction - spec.paper_text_pct / 100),
                  "<", 0.06),
            claim(f"table1.double_pct.{name}",
                  abs(measured.double_fraction
                      - spec.paper_double_pct / 100),
                  "<", 0.025),
            claim(f"table1.non_leaf.{name}", measured.non_leaf_doubles,
                  *(("==", 0) if spec.paper_non_leaf == 0 else (">=", 1))),
        ]
    return records


def report(stats: dict[str, DatasetStats]) -> str:
    return ("Table 1: dataset statistics (measured, paper values in parens)\n"
            + format_report(stats))


def main() -> int:
    stats = run()
    print(report(stats))
    return print_claims(claims(stats))


if __name__ == "__main__":
    raise SystemExit(main())
