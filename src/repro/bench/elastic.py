"""Elasticity benchmark: query service during a live migration.

One cluster, two measurements of the same read workload:

* **quiesced** — steady-state scatter-gather throughput with
  placement at rest;
* **during migration** — the same reader threads while a document is
  being migrated between shards in a loop (queries stay online; updates
  to the source pause for the export, the destination's import and
  the manifest flip).

The headline is the throughput ratio plus the migration's measured
``duration_s``/``pause_s`` split.

Emits ``BENCH_elastic.json``.

Env knobs: ``REPRO_ELASTIC_SECONDS`` (per-phase read window, default
1.0), ``REPRO_ELASTIC_READERS`` (reader threads, default 4),
``REPRO_ELASTIC_SHARDS`` (default 2).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time

from ..shard import ShardCluster
from .harness import render_table
from .report import emit

__all__ = ["run", "write_json", "format_report", "main"]

JSON_PATH = "BENCH_elastic.json"

QUERIES = [
    "//p[.//age = 7]",
    '//p[.//name = "n3"]',
    "//p[.//age >= 12]",
]


def _fixture_xml(persons: int = 160) -> str:
    body = "".join(
        f"<p><name>n{i % 12}</name><age>{i % 25}</age></p>"
        for i in range(persons)
    )
    return f"<root>{body}</root>"


def _measure_reads(cluster: ShardCluster, readers: int,
                   seconds: float, stop_when=None) -> dict:
    counts = [0] * readers
    stop = threading.Event()

    def reader(slot: int) -> None:
        i = 0
        while not stop.is_set():
            cluster.query_pres(QUERIES[i % len(QUERIES)])
            counts[slot] += 1
            i += 1

    threads = [threading.Thread(target=reader, args=(slot,))
               for slot in range(readers)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    deadline = started + seconds
    while time.perf_counter() < deadline:
        if stop_when is not None and stop_when():
            break
        time.sleep(0.005)
    stop.set()
    for thread in threads:
        thread.join(timeout=60)
    elapsed = time.perf_counter() - started
    executed = sum(counts)
    return {
        "queries": executed,
        "elapsed_seconds": elapsed,
        "queries_per_second": executed / elapsed,
    }


def run() -> dict:
    seconds = float(os.environ.get("REPRO_ELASTIC_SECONDS", "1.0"))
    readers = int(os.environ.get("REPRO_ELASTIC_READERS", "4"))
    shards = int(os.environ.get("REPRO_ELASTIC_SHARDS", "2"))
    base = tempfile.mkdtemp(prefix="repro-elastic-")
    try:
        cluster = ShardCluster(base, shards=shards, transport="thread",
                               checkpoint_every=0)
        cluster.start()
        try:
            cluster.load("people", _fixture_xml(), shard=0)
            cluster.load("ballast", _fixture_xml(40), shard=0)

            quiesced = _measure_reads(cluster, readers, seconds)

            migrations: list[dict] = []
            migrating = threading.Event()

            def mover() -> None:
                where = 0
                deadline = time.perf_counter() + seconds
                while time.perf_counter() < deadline:
                    target = (where + 1) % shards
                    migrations.append(
                        cluster.migrate_document("people", target))
                    where = target
                migrating.set()

            thread = threading.Thread(target=mover)
            thread.start()
            live = _measure_reads(cluster, readers, seconds * 4,
                                  stop_when=migrating.is_set)
            thread.join(timeout=120)

            moved = [m for m in migrations if m["moved"]]
            payload = {
                "quiesced": quiesced,
                "during_migration": live,
                "migrations": len(moved),
                "migration_mean_duration_s": (
                    sum(m["duration_s"] for m in moved) / len(moved)
                    if moved else 0.0),
                "migration_mean_pause_s": (
                    sum(m["pause_s"] for m in moved) / len(moved)
                    if moved else 0.0),
                "migration_bytes": moved[0]["bytes"] if moved else 0,
                "throughput_ratio": (
                    live["queries_per_second"]
                    / quiesced["queries_per_second"]
                    if quiesced["queries_per_second"] else 0.0),
                "reader_threads": readers,
                "seconds": seconds,
                "shards": shards,
                "cores_available": os.cpu_count() or 1,
            }
        finally:
            cluster.stop()
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return payload


def write_json(payload: dict, path: str = JSON_PATH) -> dict:
    return emit(
        path, "elastic", payload,
        workload=f"{len(QUERIES)}-query scatter mix, "
                 f"{payload['reader_threads']} reader thread(s), "
                 "migrations looping one document between shards",
        config={
            "shards": payload["shards"],
            "reader_threads": payload["reader_threads"],
            "seconds": payload["seconds"],
            "cores_available": payload["cores_available"],
        },
    )


def format_report(payload: dict) -> str:
    headers = ["phase", "queries/s"]
    rows = [
        ["quiesced", f"{payload['quiesced']['queries_per_second']:,.1f}"],
        ["during migration",
         f"{payload['during_migration']['queries_per_second']:,.1f}"],
    ]
    return render_table(headers, rows)


def main() -> None:
    payload = run()
    print(f"Elastic: {payload['shards']} shard(s), "
          f"{payload['reader_threads']} reader thread(s), "
          f"{payload['cores_available']} core(s) available")
    print(format_report(payload))
    print(f"{payload['migrations']} migration(s): "
          f"mean total {payload['migration_mean_duration_s'] * 1e3:.1f} ms, "
          f"mean update pause {payload['migration_mean_pause_s'] * 1e3:.1f} "
          f"ms, throughput ratio "
          f"{payload['throughput_ratio']:.2f}x")
    write_json(payload)
    print(f"wrote {JSON_PATH}")


if __name__ == "__main__":
    main()
