"""Shared benchmark utilities: timing, table rendering and claims.

A *claim* is one shape statement of the paper's evaluation checked
against a measurement: a record ``{"id", "held", "measured", "bound",
"timing"}``.  ``timing`` marks claims that compare wall-clock times;
the others (byte model, node mix, hash histogram, answer equality) are
deterministic, so the test suite asserts them too.
"""

from __future__ import annotations

import operator
import time
from typing import Any, Callable, Iterable, Sequence

__all__ = [
    "measure_seconds", "render_table", "format_bytes", "claim",
    "print_claims",
]

_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt,
    ">=": operator.ge, "==": operator.eq,
    "in": lambda value, bounds: bounds[0] < value < bounds[1],
}


def measure_seconds(
    fn: Callable[[], object], repeats: int = 3
) -> tuple[float, object]:
    """Run ``fn`` ``repeats`` times; return (average seconds, last result).

    Mirrors the paper's methodology of averaging repeated cold runs —
    the caller is responsible for resetting state between runs if the
    operation is not idempotent.
    """
    total = 0.0
    result: object = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        total += time.perf_counter() - start
    return total / repeats, result


def render_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Render an aligned plain-text table."""
    materialised = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialised:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.rjust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in materialised:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def format_bytes(count: int) -> str:
    """Human-readable byte count."""
    value = float(count)
    for unit in ("B", "KB", "MB", "GB"):
        if value < 1024 or unit == "GB":
            return f"{value:,.1f} {unit}"
        value /= 1024
    return f"{value:,.1f} GB"  # pragma: no cover


def claim(claim_id: str, measured: Any, op: str, bound: Any,
          timing: bool = False) -> dict[str, Any]:
    """One claim record: ``measured op bound`` (``in`` is the open
    interval ``bound[0] < measured < bound[1]``)."""
    return {
        "id": claim_id,
        "held": bool(_OPS[op](measured, bound)),
        "measured": measured,
        "bound": f"{op} {bound}",
        "timing": timing,
    }


def print_claims(claims: Sequence[dict[str, Any]]) -> int:
    """Print one line per claim; return the exit status: 1 if any
    claim failed, else 0."""
    for record in claims:
        measured = record["measured"]
        if isinstance(measured, float):
            measured = f"{measured:.4g}"
        verdict = "ok  " if record["held"] else "FAIL"
        print(f"{verdict} {record['id']}: {measured} {record['bound']}")
    return int(not all(record["held"] for record in claims))
