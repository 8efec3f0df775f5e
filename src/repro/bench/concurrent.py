"""Concurrent serving benchmark: snapshot readers + group commit.

Measures the two claims of the concurrent serving path
(``docs/concurrency.md``):

* **Write scaling** — aggregate committed-updates/sec over a writer
  thread sweep, against the 1-writer baseline, where every commit is a
  batch of one and pays its own fsync.  Group commit amortizes the
  durable-media round trip across a batch, so throughput should scale
  well past the baseline even on one core.
* **Read isolation cost** — query latency percentiles (p50/p99) for
  snapshot-pinned readers running *during* the write load; readers
  never block behind text writers, so latency should stay flat as
  writers are added.

Emits ``BENCH_concurrent_serve.json`` with per-writer-count
throughput, latency percentiles, commit-batch occupancy and
fsyncs-per-commit (from the ``wal.*``/``concurrency.*`` counters).
:func:`claims` checks the headline (4 writers commit at >= 2x the
1-writer baseline), the batching that explains it and that the
baseline pays one fsync per commit; :func:`main` prints them next to
this host's cost of one fsync, and exits 1 when one fails.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field

from ..database import Database
from ..xmldb.document import ELEM, TEXT
from .harness import claim, print_claims, render_table
from .report import emit

__all__ = [
    "ServeResult", "run", "write_json", "format_report", "claims", "main",
]

#: Writer thread counts of the reported sweep.
WRITER_COUNTS = (1, 2, 4)

#: Reader threads running alongside every write configuration.
READER_COUNT = 2

#: Updates committed per writer thread per configuration.
UPDATES_PER_WRITER = 300

#: Default output path (cwd, like the printed reports).
JSON_PATH = "BENCH_concurrent_serve.json"

_QUERY = "//p[.//age = 7]"


@dataclass
class ServeResult:
    """One writer count's measurements."""

    writers: int
    commits: int
    elapsed_seconds: float
    commit_p50_us: float
    commit_p99_us: float
    query_p50_us: float
    query_p99_us: float
    fsyncs: int
    batches: int
    batch_records: int
    epoch_pins: int
    reader_queries: int
    counters: dict = field(default_factory=dict)

    @property
    def commits_per_second(self) -> float:
        return self.commits / self.elapsed_seconds

    @property
    def batch_occupancy(self) -> float:
        return self.batch_records / self.batches if self.batches else 1.0

    @property
    def fsyncs_per_commit(self) -> float:
        return self.fsyncs / self.commits if self.commits else 0.0


def _fixture_xml(persons: int = 16) -> str:
    body = "".join(
        f"<p><name>n{i}</name><age>{i % 50}</age></p>" for i in range(persons)
    )
    return f"<root>{body}</root>"


def _age_nids(doc) -> list[int]:
    nids = []
    for pre in range(len(doc)):
        if doc.kind[pre] != TEXT:
            continue
        parent = doc.parent(pre)
        if doc.kind[parent] == ELEM and doc.name_of(parent) == "age":
            nids.append(doc.nid[pre])
    return nids


def _percentile(sorted_values: list[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]


def _measure(writers: int, updates_per_writer: int,
             seed: int) -> ServeResult:
    """Run one writer count in a fresh fsync-durability database."""
    base = tempfile.mkdtemp(prefix="bench-concurrent-")
    try:
        db = Database(
            os.path.join(base, "db"),
            typed=(),  # keep per-update maintenance minimal: string index
            sync="fsync",
            checkpoint_every=0,
        )
        doc = db.load("bench", _fixture_xml())
        nids = _age_nids(doc)
        db.manager.metrics.reset()

        commit_lat: list[list[float]] = [[] for _ in range(writers)]
        query_lat: list[float] = []
        reader_stop = threading.Event()
        start_barrier = threading.Barrier(writers + READER_COUNT)

        def writer(slot: int) -> None:
            rng = random.Random(seed + slot)
            latencies = commit_lat[slot]
            start_barrier.wait()
            for _ in range(updates_per_writer):
                nid = rng.choice(nids)
                value = str(rng.randrange(50))
                begin = time.perf_counter()
                db.update_text(nid, value)
                latencies.append(time.perf_counter() - begin)

        def reader(slot: int) -> None:
            start_barrier.wait()
            while not reader_stop.is_set():
                begin = time.perf_counter()
                db.query(_QUERY)
                query_lat.append(time.perf_counter() - begin)

        writer_threads = [
            threading.Thread(target=writer, args=(slot,))
            for slot in range(writers)
        ]
        reader_threads = [
            threading.Thread(target=reader, args=(slot,), daemon=True)
            for slot in range(READER_COUNT)
        ]
        for thread in reader_threads:
            thread.start()
        for thread in writer_threads:
            thread.start()
        begin = time.perf_counter()
        for thread in writer_threads:
            thread.join()
        elapsed = time.perf_counter() - begin
        reader_stop.set()
        for thread in reader_threads:
            thread.join(timeout=30)

        counters = db.metrics()["counters"]
        commits = writers * updates_per_writer
        all_commit = sorted(
            value for latencies in commit_lat for value in latencies
        )
        all_query = sorted(query_lat)
        result = ServeResult(
            writers=writers,
            commits=commits,
            elapsed_seconds=elapsed,
            commit_p50_us=_percentile(all_commit, 0.50) * 1e6,
            commit_p99_us=_percentile(all_commit, 0.99) * 1e6,
            query_p50_us=_percentile(all_query, 0.50) * 1e6,
            query_p99_us=_percentile(all_query, 0.99) * 1e6,
            fsyncs=counters.get("wal.fsyncs", 0),
            batches=counters.get("wal.group.batches", 0),
            batch_records=counters.get("wal.group.records", 0),
            epoch_pins=counters.get("concurrency.epoch_pins", 0),
            reader_queries=counters.get("query.executed", 0),
            counters={
                key: value
                for key, value in counters.items()
                if key.startswith(("wal.", "concurrency."))
            },
        )
        db.close(checkpoint=False)
        return result
    finally:
        shutil.rmtree(base, ignore_errors=True)


def run(
    writer_counts: tuple[int, ...] = WRITER_COUNTS,
    updates_per_writer: int = UPDATES_PER_WRITER,
    seed: int = 1234,
) -> list[ServeResult]:
    """Sweep writer counts."""
    return [_measure(writers, updates_per_writer, seed)
            for writers in writer_counts]


def _baseline_and_best(results: list[ServeResult]):
    """The 1-writer run and the fastest run (either None when the
    sweep lacks it)."""
    baseline = next((r for r in results if r.writers == 1), None)
    best = max(results, key=lambda r: r.commits_per_second, default=None)
    return baseline, best


def write_json(results: list[ServeResult], path: str = JSON_PATH) -> dict:
    """Serialise the sweep (returns the written payload)."""
    baseline, best = _baseline_and_best(results)
    payload = {
        "reader_threads": READER_COUNT,
        "configurations": [
            {
                "writers": r.writers,
                "commits": r.commits,
                "elapsed_seconds": r.elapsed_seconds,
                "commits_per_second": r.commits_per_second,
                "commit_p50_us": r.commit_p50_us,
                "commit_p99_us": r.commit_p99_us,
                "query_p50_us": r.query_p50_us,
                "query_p99_us": r.query_p99_us,
                "reader_queries": r.reader_queries,
                "epoch_pins": r.epoch_pins,
                "fsyncs": r.fsyncs,
                "fsyncs_per_commit": r.fsyncs_per_commit,
                "batch_occupancy": r.batch_occupancy,
                "counters": r.counters,
            }
            for r in results
        ],
        "aggregate": {
            "baseline_1_writer": (
                baseline.commits_per_second if baseline else None
            ),
            "best": best.commits_per_second if best else None,
            "speedup_vs_baseline": (
                best.commits_per_second / baseline.commits_per_second
                if baseline and best
                else None
            ),
        },
    }
    return emit(
        path, "concurrent_serve", payload,
        workload=f"text-update commits vs {READER_COUNT} snapshot "
                 f"reader(s), query {_QUERY!r}",
        config={
            "writer_counts": sorted({r.writers for r in results}),
            "updates_per_writer": (
                results[0].commits // results[0].writers if results else 0
            ),
            "reader_threads": READER_COUNT,
        },
    )


def format_report(results: list[ServeResult]) -> str:
    headers = [
        "writers",
        "commits/s",
        "commit p50/p99 µs",
        "query p50/p99 µs",
        "fsync/commit",
        "batch occ",
    ]
    rows = []
    for r in results:
        rows.append(
            [
                str(r.writers),
                f"{r.commits_per_second:,.0f}",
                f"{r.commit_p50_us:.0f}/{r.commit_p99_us:.0f}",
                f"{r.query_p50_us:.0f}/{r.query_p99_us:.0f}",
                f"{r.fsyncs_per_commit:.2f}",
                f"{r.batch_occupancy:.1f}",
            ]
        )
    return render_table(headers, rows)


def claims(results: list[ServeResult]) -> list[dict]:
    """Group commit batches (occupancy >= 1, under one fsync per commit
    at 4 writers) and so commits >= 2x faster at 4 writers than at 1,
    where every commit is its own batch and pays one fsync."""
    by_writers = {r.writers: r for r in results}
    one, four = by_writers[1], by_writers[4]
    return [
        claim("concurrent.group_commit_speedup",
              four.commits_per_second / one.commits_per_second,
              ">=", 2.0, timing=True),
        claim("concurrent.fsyncs_per_commit.1w", one.fsyncs_per_commit,
              "==", 1),
        claim("concurrent.fsyncs_per_commit.4w", four.fsyncs_per_commit,
              "<", 1.0, timing=True),
    ] + [
        claim(f"concurrent.batch_occupancy.{r.writers}w", r.batch_occupancy,
              ">=", 1.0)
        for r in results
    ]


def fsync_seconds() -> float:
    """Median cost of one small append plus ``fsync`` (of 50) in the
    temporary directory the sweep's databases live in."""
    fd, path = tempfile.mkstemp(prefix="bench-fsync-")
    timings = []
    try:
        for _ in range(50):
            begin = time.perf_counter()
            os.write(fd, b"x" * 64)
            os.fsync(fd)
            timings.append(time.perf_counter() - begin)
    finally:
        os.close(fd)
        os.unlink(path)
    return _percentile(sorted(timings), 0.50)


def main() -> int:
    results = run()
    print(f"Concurrent serving sweep ({READER_COUNT} reader thread(s), "
          f"fsync durability)")
    print(format_report(results))
    write_json(results)
    print(f"wrote {JSON_PATH}; one fsync here costs "
          f"{fsync_seconds() * 1e6:,.0f} µs")
    return print_claims(claims(results))


if __name__ == "__main__":
    raise SystemExit(main())
