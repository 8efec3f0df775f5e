"""Figure 9 — index creation time and storage overhead.

Top half of the paper's figure: per dataset, the document shredding
time next to the extra time the single-pass creation algorithm spends
building (a) the string index and (b) the double index.  The paper
reports string-index overhead under 10% of shred time and double-index
overhead under 2%.

Bottom half: modelled storage of each index relative to the database
size — string index 10-20% of DB size, double index 2-3% — next to the
measured length of the ``.doc``/``.sidx``/``.tidx`` encodings
``save_manager`` writes.  The storage claims are on the model.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.builder import build_document
from ..core.string_index import StringIndex
from ..core.typed_index import TypedIndex
from ..storage.persist import document_bytes, index_bytes
from ..workloads import DATASETS, bench_scale
from ..xmldb import Store
from .harness import (claim, format_bytes, measure_seconds, print_claims,
                      render_table)

__all__ = [
    "CreationResult", "run", "format_time_report", "format_storage_report",
    "report", "claims", "main",
]

#: Paper-reported Figure 9 values (ms / MB) for side-by-side output.
PAPER_SHRED_MS = {
    "XMark1": 6842, "XMark2": 14877, "XMark4": 28079, "XMark8": 55680,
    "EPAGeo": 7838, "DBLP": 51347, "PSD": 62510, "Wiki": 213875,
}
PAPER_STRING_MS = {
    "XMark1": 508, "XMark2": 1030, "XMark4": 2104, "XMark8": 4260,
    "EPAGeo": 497, "DBLP": 2261, "PSD": 3088, "Wiki": 8968,
}
PAPER_DOUBLE_MS = {
    "XMark1": 153, "XMark2": 326, "XMark4": 660, "XMark8": 1345,
    "EPAGeo": 154, "DBLP": 1088, "PSD": 1445, "Wiki": 2623,
}
PAPER_DB_MB = {
    "XMark1": 130.1, "XMark2": 242.4, "XMark4": 450.1, "XMark8": 832.1,
    "EPAGeo": 106.5, "DBLP": 739.5, "PSD": 944.0, "Wiki": 2702.2,
}
PAPER_STRING_MB = {
    "XMark1": 17.8, "XMark2": 35.8, "XMark4": 71.8, "XMark8": 143.5,
    "EPAGeo": 25.0, "DBLP": 132.7, "PSD": 222.9, "Wiki": 361.1,
}
PAPER_DOUBLE_MB = {
    "XMark1": 3.4, "XMark2": 6.6, "XMark4": 13.4, "XMark8": 26.7,
    "EPAGeo": 4.8, "DBLP": 35.6, "PSD": 30.0, "Wiki": 1.0,
}


@dataclass
class CreationResult:
    """Per-dataset creation timings and storage sizes."""

    name: str
    nodes: int
    shred_seconds: float
    string_seconds: float
    double_seconds: float
    db_bytes: int
    string_bytes: int
    double_bytes: int
    string_entries: int
    double_potential: int
    #: measured bytes of the ``.doc``, ``.sidx`` and ``.tidx`` encodings
    doc_file_bytes: int
    sidx_file_bytes: int
    tidx_file_bytes: int

    @property
    def string_overhead(self) -> float:
        return self.string_seconds / self.shred_seconds

    @property
    def double_overhead(self) -> float:
        return self.double_seconds / self.shred_seconds

    @property
    def string_storage_fraction(self) -> float:
        return self.string_bytes / self.db_bytes

    @property
    def double_storage_fraction(self) -> float:
        return self.double_bytes / self.db_bytes


def measure_dataset(name: str, xml: str, repeats: int = 3) -> CreationResult:
    """Measure shred time and per-index creation time for one dataset."""
    shred_seconds, _ = measure_seconds(
        lambda: Store().add_document(name, xml), repeats
    )
    store = Store()
    doc = store.add_document(name, xml)

    def build_string():
        index = StringIndex()
        build_document(doc, [index])
        return index

    def build_double():
        index = TypedIndex("double")
        build_document(doc, [index])
        return index

    string_seconds, string_index = measure_seconds(build_string, repeats)
    double_seconds, double_index = measure_seconds(build_double, repeats)
    return CreationResult(
        name=name,
        nodes=len(doc),
        shred_seconds=shred_seconds,
        string_seconds=string_seconds,
        double_seconds=double_seconds,
        db_bytes=doc.byte_size(),
        string_bytes=string_index.byte_size(),
        double_bytes=double_index.byte_size(),
        string_entries=len(string_index),
        double_potential=double_index.potential_count(),
        doc_file_bytes=len(document_bytes(doc)),
        sidx_file_bytes=len(index_bytes(string_index, doc)),
        tidx_file_bytes=len(index_bytes(double_index, doc)),
    )


def run(scale: float | None = None, repeats: int = 3) -> list[CreationResult]:
    scale = bench_scale() if scale is None else scale
    results = []
    for name, spec in DATASETS.items():
        results.append(measure_dataset(name, spec.build(scale), repeats))
    return results


def format_time_report(results: list[CreationResult]) -> str:
    headers = [
        "Data", "Nodes", "Shred ms", "String ms", "String ovh (paper)",
        "Double ms", "Double ovh (paper)",
    ]
    rows = []
    for r in results:
        paper_string = PAPER_STRING_MS[r.name] / PAPER_SHRED_MS[r.name]
        paper_double = PAPER_DOUBLE_MS[r.name] / PAPER_SHRED_MS[r.name]
        rows.append(
            [
                r.name,
                f"{r.nodes:,}",
                f"{r.shred_seconds * 1000:.0f}",
                f"{r.string_seconds * 1000:.0f}",
                f"{r.string_overhead:.0%} ({paper_string:.0%})",
                f"{r.double_seconds * 1000:.0f}",
                f"{r.double_overhead:.0%} ({paper_double:.0%})",
            ]
        )
    return render_table(headers, rows)


def format_storage_report(results: list[CreationResult]) -> str:
    headers = [
        "Data", "DB size", "String idx", "String/DB (paper)",
        "Double idx", "Double/DB (paper)", ".doc", ".sidx", ".tidx",
    ]
    rows = []
    for r in results:
        paper_string = PAPER_STRING_MB[r.name] / PAPER_DB_MB[r.name]
        paper_double = PAPER_DOUBLE_MB[r.name] / PAPER_DB_MB[r.name]
        rows.append(
            [
                r.name,
                format_bytes(r.db_bytes),
                format_bytes(r.string_bytes),
                f"{r.string_storage_fraction:.0%} ({paper_string:.0%})",
                format_bytes(r.double_bytes),
                f"{r.double_storage_fraction:.1%} ({paper_double:.1%})",
                format_bytes(r.doc_file_bytes),
                format_bytes(r.sidx_file_bytes),
                format_bytes(r.tidx_file_bytes),
            ]
        )
    return render_table(headers, rows)


def claims(results: list[CreationResult]) -> list[dict]:
    """Every index covers its document; the string index is 5-25% of
    the database (paper: 10-20%), lowest on Wiki; the double index is
    smaller still, negligible on Wiki.  Timed: the double index is
    cheaper to build, and creation grows with the XMark size."""
    by_name = {r.name: r for r in results}
    records = []
    for r in results:
        records += [
            claim(f"fig9.nodes.{r.name}", r.nodes, ">", 0),
            claim(f"fig9.string_entries.{r.name}", r.string_entries,
                  "==", r.nodes),
            claim(f"fig9.double_potential.{r.name}", r.double_potential,
                  ">", 0),
            claim(f"fig9.string_fraction.{r.name}",
                  r.string_storage_fraction, "in", (0.05, 0.25)),
            claim(f"fig9.double_below_string.{r.name}",
                  r.double_bytes / r.string_bytes, "in", (0, 1)),
        ]
    lowest = min(results, key=lambda r: r.string_storage_fraction)
    records += [
        claim("fig9.wiki_double_fraction",
              by_name["Wiki"].double_storage_fraction, "<", 0.01),
        claim("fig9.lowest_string_fraction", lowest.name, "==", "Wiki"),
        claim("fig9.double_cheaper_to_build",
              sum(r.double_seconds for r in results)
              / sum(r.string_seconds for r in results),
              "<", 1, timing=True),
        claim("fig9.creation_grows_with_size",
              by_name["XMark8"].string_seconds
              / by_name["XMark1"].string_seconds,
              ">", 1, timing=True),
    ]
    return records


def report(results: list[CreationResult]) -> str:
    return "\n".join([
        "Figure 9 (top): creation time overhead over shredding",
        format_time_report(results),
        "",
        "Figure 9 (bottom): storage overhead over database size",
        format_storage_report(results),
    ])


def main() -> int:
    results = run()
    print(report(results))
    return print_claims(claims(results))


if __name__ == "__main__":
    raise SystemExit(main())
