"""Network serving benchmark: many clients against one server.

Drives N simulated client connections (default 120 — well past the
acceptance floor of 100) from one asyncio event loop against a
:class:`~repro.server.DatabaseServer` with fsync durability.  Most
clients issue queries, the rest stream text updates; every update
acknowledged over the wire is durable per the group-commit contract
(``docs/serving.md``).

Emits ``BENCH_serve_network.json``:

* sustained queries/sec and commit (update-ack) throughput,
* client-observed query and commit latency percentiles (p50/p99),
* group-commit batch occupancy (from the ``wal.group.batch_size``
  histogram) and fsyncs-per-commit,
* admission-control pressure (``busy`` rejections).

Knobs (environment): ``REPRO_SERVE_CLIENTS`` (total connections),
``REPRO_SERVE_WRITERS`` (of which writers), ``REPRO_SERVE_SECONDS``
(measurement window).
"""

from __future__ import annotations

import asyncio
import os
import shutil
import tempfile
import time

from ..client import AsyncClient, ClientError
from ..database import Database
from ..server import ServerThread
from ..xmldb.document import ELEM, TEXT
from .harness import render_table
from .report import emit

__all__ = ["run", "write_json", "format_report", "main"]

CLIENTS = int(os.environ.get("REPRO_SERVE_CLIENTS", "120"))
WRITER_CLIENTS = int(os.environ.get("REPRO_SERVE_WRITERS", "20"))
DURATION_SECONDS = float(os.environ.get("REPRO_SERVE_SECONDS", "6"))

JSON_PATH = "BENCH_serve_network.json"

_QUERY = "//p[.//age = 7]"


def _fixture_xml(persons: int = 24) -> str:
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


async def _drive(
    host: str,
    port: int,
    clients: int,
    writer_clients: int,
    duration: float,
    nids: list[int],
) -> dict:
    """Run the client fleet; returns raw latency samples and counts."""
    connections = []
    for _ in range(clients):
        client = AsyncClient()
        await client.connect(host, port)
        connections.append(client)

    query_lat: list[float] = []
    commit_lat: list[float] = []
    busy = 0
    deadline = time.perf_counter() + duration
    started = asyncio.Event()

    async def reader(client: AsyncClient) -> int:
        done = 0
        await started.wait()
        while time.perf_counter() < deadline:
            begin = time.perf_counter()
            await client.query(_QUERY)
            query_lat.append(time.perf_counter() - begin)
            done += 1
        return done

    async def writer(client: AsyncClient, slot: int) -> int:
        nonlocal busy
        done = 0
        await started.wait()
        while time.perf_counter() < deadline:
            nid = nids[(slot + done) % len(nids)]
            begin = time.perf_counter()
            try:
                await client.update_text(nid, str((slot + done) % 50))
            except ClientError as exc:
                if exc.code == "busy":
                    busy += 1
                    await asyncio.sleep((exc.retry_after_ms or 25.0) / 1000.0)
                    continue
                raise
            commit_lat.append(time.perf_counter() - begin)
            done += 1
        return done

    tasks = []
    for slot, client in enumerate(connections):
        if slot < writer_clients:
            tasks.append(asyncio.ensure_future(writer(client, slot)))
        else:
            tasks.append(asyncio.ensure_future(reader(client)))
    started.set()
    begin = time.perf_counter()
    counts = await asyncio.gather(*tasks)
    elapsed = time.perf_counter() - begin

    metrics = await connections[0].metrics()
    for client in connections:
        await client.close()

    commits = sum(counts[:writer_clients])
    queries = sum(counts[writer_clients:])
    return {
        "elapsed": elapsed,
        "queries": queries,
        "commits": commits,
        "busy_rejections": busy,
        "query_lat": sorted(query_lat),
        "commit_lat": sorted(commit_lat),
        "metrics": metrics,
    }


def run(
    clients: int = CLIENTS,
    writer_clients: int = WRITER_CLIENTS,
    duration: float = DURATION_SECONDS,
) -> dict:
    """One measured configuration; returns the JSON payload."""
    base = tempfile.mkdtemp(prefix="bench-serve-")
    try:
        db = Database(
            os.path.join(base, "db"),
            typed=(),
            sync="fsync",
            checkpoint_every=0,
        )
        doc = db.load("bench", _fixture_xml())
        nids = _age_nids(doc)
        db.manager.metrics.reset()

        thread = ServerThread(db, max_pending_updates=128,
                              read_workers=8, write_workers=8)
        host, port = thread.start()
        try:
            raw = asyncio.run(
                _drive(host, port, clients, writer_clients, duration, nids)
            )
        finally:
            thread.stop()
        if thread.server.close_error is not None:
            raise RuntimeError(
                f"drain failed: {thread.server.close_error!r}"
            )

        counters = raw["metrics"]["counters"]
        histograms = raw["metrics"].get("histograms", {})
        batch_size = histograms.get("wal.group.batch_size", {})
        fsyncs = counters.get("wal.fsyncs", 0)
        payload = {
            "clients": clients,
            "reader_clients": clients - writer_clients,
            "writer_clients": writer_clients,
            "duration_seconds": raw["elapsed"],
            "queries": raw["queries"],
            "queries_per_second": raw["queries"] / raw["elapsed"],
            "query_p50_us": _percentile(raw["query_lat"], 0.50) * 1e6,
            "query_p99_us": _percentile(raw["query_lat"], 0.99) * 1e6,
            "commits": raw["commits"],
            "commits_per_second": raw["commits"] / raw["elapsed"],
            "commit_p50_us": _percentile(raw["commit_lat"], 0.50) * 1e6,
            "commit_p99_us": _percentile(raw["commit_lat"], 0.99) * 1e6,
            "busy_rejections": raw["busy_rejections"],
            "batch_occupancy_mean": batch_size.get("mean", 0.0),
            "batch_occupancy_max": batch_size.get("max", 0.0),
            "batches": counters.get("wal.group.batches", 0),
            "fsyncs": fsyncs,
            "fsyncs_per_commit": (
                fsyncs / raw["commits"] if raw["commits"] else 0.0
            ),
            "server_counters": {
                key: value
                for key, value in counters.items()
                if key.startswith(("server.", "wal.", "concurrency."))
            },
        }
        return payload
    finally:
        shutil.rmtree(base, ignore_errors=True)


def write_json(payload: dict, path: str = JSON_PATH) -> dict:
    return emit(
        path, "serve_network", payload,
        workload=f"{CLIENTS} pipelined connections "
                 f"({WRITER_CLIENTS} writers), query {_QUERY!r}",
        config={"clients": CLIENTS, "writer_clients": WRITER_CLIENTS,
                "duration_seconds": DURATION_SECONDS},
    )


def format_report(payload: dict) -> str:
    headers = ["clients", "queries/s", "query p50/p99 µs",
               "commits/s", "commit p50/p99 ms", "batch occ", "busy"]
    rows = [[
        f"{payload['clients']} ({payload['writer_clients']}w)",
        f"{payload['queries_per_second']:,.0f}",
        f"{payload['query_p50_us']:.0f}/{payload['query_p99_us']:.0f}",
        f"{payload['commits_per_second']:,.0f}",
        f"{payload['commit_p50_us'] / 1000:.1f}/"
        f"{payload['commit_p99_us'] / 1000:.1f}",
        f"{payload['batch_occupancy_mean']:.1f}",
        str(payload["busy_rejections"]),
    ]]
    return render_table(headers, rows)


def main() -> None:
    payload = run()
    print(f"Network serving bench ({payload['clients']} connections, "
          f"{payload['writer_clients']} writers, fsync + group commit)")
    print(format_report(payload))
    write_json(payload)
    print(f"wrote {JSON_PATH}")


if __name__ == "__main__":
    main()
