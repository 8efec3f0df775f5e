"""Benchmark drivers: one module per paper table/figure, plus ablations.

Each driver owns its experiment (``run(scale)``), the tables it prints
(``format_*``, ``report``) and its shape claims (``claims(result)``).
``make paper`` (``python -m repro.bench.paper``) runs them all at
``REPRO_BENCH_SCALE``, writes ``PAPER_RESULTS.json`` and fails when a
claim does not hold.  Any one of them runs alone too::

    python -m repro.bench.table1
    python -m repro.bench.figure9
    python -m repro.bench.figure10
    python -m repro.bench.figure11
    python -m repro.bench.ablations
"""

from .harness import format_bytes, measure_seconds, render_table

__all__ = ["format_bytes", "measure_seconds", "render_table"]
