"""Replication benchmark: read scale-out over followers, and lag.

Two measurements against one live primary server:

* **Read throughput vs follower count** — for each configuration the
  reader threads drive the same query mix through per-thread
  :class:`~repro.repl.ReplicaSet` routers (0 followers = every read on
  the primary).  Followers are real :class:`~repro.repl.FollowerServer`
  processes-worth of work in-process (server thread + tail thread), so
  the scaling headline needs cores exactly like ``repro.bench.shard``
  — ``cores_available`` records what this run had.
* **Steady-state lag** — a writer updates the primary at full speed
  while one follower tails; the sampler records how many acked updates
  the follower trails by, plus the drain time to full convergence
  after the writer stops.

Emits ``BENCH_replication.json``.

Env knobs: ``REPRO_REPL_FOLLOWERS`` (default ``0,1,2``),
``REPRO_REPL_SECONDS`` (per-configuration read window, default 1.0),
``REPRO_REPL_READERS`` (reader threads, default 4).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time

from ..database import Database
from ..repl import Follower, FollowerServer, ReplicaSet
from ..server import ServerThread
from .harness import render_table
from .report import emit

__all__ = ["run", "write_json", "format_report", "main"]

JSON_PATH = "BENCH_replication.json"

QUERIES = [
    "//p[.//age = 7]",
    '//p[.//name = "n3"]',
    "//p[.//age >= 12]",
]


def _follower_counts() -> tuple[int, ...]:
    raw = os.environ.get("REPRO_REPL_FOLLOWERS", "0,1,2")
    return tuple(int(part) for part in raw.split(",") if part)


def _fixture_xml(persons: int = 120) -> str:
    body = "".join(
        f"<p><name>n{i % 12}</name><age>{i % 25}</age></p>"
        for i in range(persons)
    )
    return f"<root>{body}</root>"


def _age_nids(db: Database) -> list[int]:
    return db.query("//age/text()")


class _Deployment:
    """Primary + N serving followers, all torn down in one call."""

    def __init__(self, base: str, followers: int):
        self.db = Database(os.path.join(base, "primary"),
                           checkpoint_every=0)
        self.db.load("people", _fixture_xml())
        self.thread = ServerThread(self.db)
        self.addr = self.thread.start()
        self.followers: list[Follower] = []
        self.servers: list[FollowerServer] = []
        self.follower_addrs: list[tuple[str, int]] = []
        for i in range(followers):
            follower = Follower(os.path.join(base, f"f{i}"), self.addr,
                                poll_interval=0.002)
            follower.start()
            server = FollowerServer(follower)
            self.followers.append(follower)
            self.servers.append(server)
            self.follower_addrs.append(server.start())

    def close(self) -> None:
        for server in self.servers:
            server.stop()
        for follower in self.followers:
            follower.close()
        self.thread.stop()


def _measure_reads(deployment: _Deployment, readers: int,
                   seconds: float) -> dict:
    counts = [0] * readers
    stop = threading.Event()

    def reader(slot: int) -> None:
        replica_set = ReplicaSet(deployment.addr,
                                 deployment.follower_addrs)
        try:
            i = 0
            while not stop.is_set():
                replica_set.query(QUERIES[i % len(QUERIES)])
                counts[slot] += 1
                i += 1
        finally:
            replica_set.close()

    threads = [threading.Thread(target=reader, args=(slot,))
               for slot in range(readers)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    time.sleep(seconds)
    stop.set()
    for thread in threads:
        thread.join(timeout=60)
    elapsed = time.perf_counter() - started
    executed = sum(counts)
    return {
        "followers": len(deployment.follower_addrs),
        "queries": executed,
        "elapsed_seconds": elapsed,
        "queries_per_second": executed / elapsed,
    }


def _measure_lag(base: str, seconds: float) -> dict:
    db = Database(os.path.join(base, "lag-primary"), checkpoint_every=0)
    db.load("people", _fixture_xml())
    ages = _age_nids(db)
    thread = ServerThread(db)
    addr = thread.start()
    follower = Follower(os.path.join(base, "lag-follower"), addr,
                        poll_interval=0.002)
    follower.start()
    issued = 0
    samples: list[int] = []
    try:
        deadline = time.monotonic() + seconds
        next_sample = 0.0
        while time.monotonic() < deadline:
            db.update_text(ages[issued % len(ages)], str(issued % 25))
            issued += 1
            now = time.monotonic()
            if now >= next_sample:
                samples.append(issued - follower.applied_records)
                next_sample = now + 0.01
        drain_started = time.perf_counter()
        while follower.applied_records < issued:
            if time.perf_counter() - drain_started > 60:
                raise RuntimeError(
                    f"follower stuck at {follower.applied_records}/"
                    f"{issued} records: {follower.last_error!r}"
                )
            time.sleep(0.001)
        drain = time.perf_counter() - drain_started
    finally:
        follower.close()
        thread.stop()
        db.close(checkpoint=False)
    return {
        "updates": issued,
        "lag_samples": len(samples),
        "mean_lag_records": sum(samples) / max(1, len(samples)),
        "max_lag_records": max(samples, default=0),
        "drain_seconds": drain,
    }


def run() -> dict:
    seconds = float(os.environ.get("REPRO_REPL_SECONDS", "1.0"))
    readers = int(os.environ.get("REPRO_REPL_READERS", "4"))
    base = tempfile.mkdtemp(prefix="repro-bench-repl-")
    try:
        configurations = []
        for followers in _follower_counts():
            deployment = _Deployment(
                os.path.join(base, f"d{followers}"), followers)
            try:
                configurations.append(
                    _measure_reads(deployment, readers, seconds))
            finally:
                deployment.close()
        lag = _measure_lag(base, seconds)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    by_count = {c["followers"]: c for c in configurations}
    base_qps = by_count.get(0, configurations[0])["queries_per_second"]
    return {
        "cores_available": os.cpu_count() or 1,
        "reader_threads": readers,
        "seconds": seconds,
        "configurations": configurations,
        "lag": lag,
        "aggregate": {
            "speedup_vs_primary_only": {
                str(c["followers"]): c["queries_per_second"] / base_qps
                for c in configurations
            },
        },
    }


def write_json(payload: dict, path: str = JSON_PATH) -> dict:
    return emit(
        path, "replication", payload,
        workload=f"{len(QUERIES)}-query read mix through ReplicaSet, "
                 f"{payload['reader_threads']} reader thread(s); "
                 "full-speed single-writer lag probe",
        config={
            "follower_counts": [c["followers"]
                                for c in payload["configurations"]],
            "reader_threads": payload["reader_threads"],
            "seconds": payload["seconds"],
            "cores_available": payload["cores_available"],
        },
    )


def format_report(payload: dict) -> str:
    headers = ["followers", "queries/s", "speedup"]
    speedups = payload["aggregate"]["speedup_vs_primary_only"]
    rows = [
        [
            str(c["followers"]),
            f"{c['queries_per_second']:,.1f}",
            f"{speedups[str(c['followers'])]:.2f}x",
        ]
        for c in payload["configurations"]
    ]
    return render_table(headers, rows)


def main() -> None:
    payload = run()
    print(f"Replication: {payload['reader_threads']} reader thread(s), "
          f"{payload['seconds']:.1f}s window, "
          f"{payload['cores_available']} core(s) available")
    print(format_report(payload))
    lag = payload["lag"]
    print(f"lag: {lag['updates']} update(s), "
          f"mean {lag['mean_lag_records']:.1f} / "
          f"max {lag['max_lag_records']} record(s) behind, "
          f"drained in {lag['drain_seconds'] * 1000:.0f} ms")
    write_json(payload)
    print(f"wrote {JSON_PATH}")


if __name__ == "__main__":
    main()
