"""Per-layer metrics and the traced run (``--trace 1``).

Every number here is measured from ``perf/`` only: by timing public
calls of one layer on inputs recorded from the workload (its query
pool, its update values, a 1 000-row response), by counter deltas of
``Database.metrics()`` / ``Client.metrics()`` around the workload's own
operations, and from the spans of one traced pass.  None of them has a
bound; they exist to say *where* an end-to-end number moved.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import threading
import time

import numpy as np

from perf import OUT, engines, inputs, measure, tracing
from perf.workloads import (MIXED_READS_PER_UPDATE, Outcome, PassStats,
                            bracketed, check_answers, counter_delta,
                            lifecycle_cycle, run_workload)

from repro import wire
from repro.btree.bplus import BPlusTree
from repro.client import Client
from repro.core import IndexManager
from repro.core.builder import build_document
from repro.core.classify import legality_mask
from repro.core.hashing import combine_all, hash_string
from repro.core.string_index import StringIndex
from repro.core.typed_index import TypedIndex
from repro.database import Database
from repro.obs.metrics import MetricsRegistry
from repro.query import build_plan, parse_query
from repro.query.kernels import kway_merge
from repro.shard import ShardCluster
from repro.storage.persist import load_manager, save_manager
from repro.storage.wal import (TEXT_UPDATE, WalRecord, WriteAheadLog,
                               replay_records)
from repro.xmldb.document import ATTR, TEXT
from repro.xmldb.parser import parse_events
from repro.xmldb.shredder import shred
from repro.xmldb.store import Store

__all__ = ["traced_run"]

PLAIN_PASSES = 3
_clock = time.perf_counter


def _median_us(calls) -> float:
    """Median latency in microseconds of the zero-argument ``calls``."""
    latencies = []
    for call in calls:
        start = _clock()
        call()
        latencies.append(_clock() - start)
    return measure.median(latencies) * 1e6


def _seconds(call, repeat: int = 3) -> float:
    """Median wall time of ``repeat`` runs of ``call``."""
    times = []
    for _ in range(repeat):
        start = _clock()
        call()
        times.append(_clock() - start)
    return measure.median(times)


# ----------------------------------------------------------------------
# Micro-benchmarks, one function per layer
# ----------------------------------------------------------------------


def _xmldb_and_build(xml: str) -> dict[str, float]:
    """The creation pass taken apart: parse, shred, hash, classify,
    build (paper Fig. 7/9), on one corpus document."""
    out = {}
    events = sum(1 for _ in parse_events(xml))
    out["xmldb.parser.events_per_s"] = events / _seconds(
        lambda: sum(1 for _ in parse_events(xml)))
    store = Store()
    doc = shred("probe", xml, store.allocate_nid)
    out["xmldb.shredder.nodes_per_s"] = len(doc) / _seconds(
        lambda: shred("probe", xml, Store().allocate_nid))
    doc.invalidate_columns()
    start = _clock()
    doc.columns()
    out["xmldb.columns.first_projection_ms"] = (_clock() - start) * 1e3

    texts = [doc.text_of(pre) for pre in range(len(doc))
             if doc.kind[pre] in (TEXT, ATTR)]
    megabytes = sum(len(t.encode("utf-8")) for t in texts) / 1e6
    out["core.hashing.hash_mb_per_s"] = megabytes / _seconds(
        lambda: [hash_string(t) for t in texts])
    hashes = [hash_string(t) for t in texts]
    out["core.hashing.combine_per_s"] = len(hashes) / _seconds(
        lambda: combine_all(hashes))
    plugin = TypedIndex("double").plugin
    out["core.classify.texts_per_s"] = len(texts) / _seconds(
        lambda: legality_mask(plugin, texts))
    out["core.builder.nodes_per_s"] = len(doc) / _seconds(
        lambda: build_document(doc, [StringIndex(), TypedIndex("double")]))
    return out


def _literals(pool) -> dict[str, list]:
    """String, numeric and range literals of the workload's own pool."""
    strings, numbers, ranges = [], [], []
    for query in pool:
        if query.shape in ("string", "attribute", "fat"):
            strings += re.findall(r'"([^"]*)"', query.text)
        elif query.shape in ("numeric", "disjunction"):
            numbers += [float(v) for v in
                        re.findall(r"= (-?[\d.e+-]+)", query.text)]
        elif query.shape == "range":
            op, value = re.search(r"(<|>=) (-?[\d.e+-]+)\]",
                                  query.text).groups()
            ranges.append((None, float(value)) if op == "<"
                          else (float(value), None))
    return {"strings": strings, "numbers": numbers, "ranges": ranges}


def _core_lookups(db: Database, pool, plan) -> dict[str, float]:
    manager = db.manager
    found = _literals(pool)
    out = {
        "core.string_index.lookup_us": _median_us(
            (lambda v=v: list(manager.lookup_string(v)))
            for v in found["strings"] * 4),
        "core.typed_index.equal_us": _median_us(
            (lambda v=v: list(manager.lookup_typed_equal("double", v)))
            for v in found["numbers"] * 4),
        "core.typed_index.range_us": _median_us(
            (lambda lo=lo, hi=hi: list(
                manager.lookup_typed_range("double", lo, hi)))
            for lo, hi in found["ranges"] * 2),
    }

    def pin():
        with db.read_view():
            pass

    out["core.concurrency.read_view_us"] = _median_us([pin] * 400)
    # Index maintenance alone (no WAL): the update path of Figure 8.
    recomputed: list[int] = []
    out["core.updater.text_update_us"] = _median_us(
        (lambda u=u, i=i: recomputed.append(
            manager.update_text(u.nid, u.values[i % 2])))
        for i in range(4) for u in plan)
    out["core.updater.ancestors_per_update"] = (
        sum(recomputed) / len(recomputed))
    return out


def _hash_collisions() -> dict[str, float]:
    """Fig. 11 on Wiki: candidates the hash B-tree returns per verified
    hit, over the distinct values of the document."""
    manager = IndexManager(typed=())
    doc = manager.load("Wiki", inputs.DATASETS["Wiki"].build(
        inputs.LIFECYCLE_SCALES["Wiki"]))
    values = sorted({doc.text_of(pre) for pre in range(len(doc))
                     if doc.kind[pre] == TEXT})
    sample = random.Random(0).sample(values, min(400, len(values)))
    candidates = sum(len(manager.string_index.candidate_nids(v))
                     for v in sample)
    hits = sum(len(list(manager.lookup_string(v))) for v in sample)
    return {"core.string_index.candidates_per_hit": candidates / hits}


def _btree() -> dict[str, float]:
    keys = list(range(0, 200_000, 2))
    entries = [(key, None) for key in keys]
    tree = BPlusTree()
    out = {"btree.bulk_load_keys_per_s": len(keys) / _seconds(
        lambda: BPlusTree().bulk_load(entries))}
    tree.bulk_load(entries)
    rng = random.Random(0)
    probes = [rng.choice(keys) for _ in range(2000)]
    out["btree.get_us"] = _median_us(
        (lambda k=k: tree.get(k)) for k in probes)
    out["btree.range_keys_per_s"] = 25_000 / _seconds(
        lambda: tree.range_keys(50_000, 99_999))
    out["btree.insert_us"] = _median_us(
        (lambda k=k: tree.insert(k + 1)) for k in probes)
    return out


def _query_layers(db: Database, pool) -> dict[str, float]:
    manager = db.manager
    doc = next(iter(manager.store.documents.values()))
    out = {"query.parser.parse_us": _median_us(
        (lambda q=q: parse_query(q.text)) for q in pool * 2)}
    paths = [parse_query(q.text).path for q in pool]
    with db.read_view():  # one view: statistics are built once
        build_plan(manager, doc, paths[0], True)
        out["query.planner.plan_cold_us"] = _median_us(
            (lambda p=p: build_plan(manager, doc, p, True))
            for p in paths * 2)
    by_class: dict[str, list[float]] = {cls: [] for cls in inputs.CLASSES}
    examined = rows = 0
    for query in pool:
        actuals = tracing.operator_actuals(db, query.text, query.document)
        by_class[query.cls].append(actuals["seconds"])
        if query.cls == "range":
            examined += actuals["examined"]
            rows += actuals["rows"]
    for cls in inputs.CLASSES:
        out[f"query.vexecutor.exec_{cls}_us"] = (
            measure.median(by_class[cls]) * 1e6)
    out["query.vexecutor.rows_examined_per_row"] = examined / max(rows, 1)
    left = np.arange(0, 1000, 2, dtype=np.int64)
    right = np.arange(1, 1000, 2, dtype=np.int64)
    out["query.kernels.kway_merge_us"] = _median_us(
        [lambda: kway_merge([left, right])] * 200)
    out["query.evaluator.oracle_s"] = measure.median([
        _seconds(lambda q=q: db.query_rows(
            q.text, q.document, use_indexes=False), 1)
        for q in pool[::4]])
    per_row = []
    for q in (q for q in pool if q.cls == "fat"):
        plain = _seconds(lambda: db.query(q.text, q.document))
        with_rows = _seconds(lambda: db.query_rows(q.text, q.document))
        per_row.append((with_rows - plain) * 1e6
                       / len(db.query(q.text, q.document)))
    out["shard.engine.rows_of_us_per_row"] = measure.median(per_row)
    return out


def _coordinator(scratch: str, pool, corpus) -> dict[str, float]:
    """2-shard thread-transport cluster against its slower shard asked
    directly: what scatter (eq) and gather (fat) add.  No gated
    workload runs a cluster yet; this keeps a number on it."""
    names = sorted(corpus)[:2]
    eq = next(q.text for q in pool if q.shape == "attribute")
    fat = next(q.text for q in pool if q.cls == "fat")
    cluster = ShardCluster(os.path.join(scratch, "cluster"), shards=2,
                           transport="thread",
                           sync=engines.FLUSH_POLICY["sync"],
                           group_commit=engines.FLUSH_POLICY["group_commit"])
    cluster.start()
    try:
        for shard, name in enumerate(names):
            cluster.load(name, corpus[name], shard=shard)
        clients = [Client(*address)
                   for address in cluster.addresses().values()]
        try:
            out = {}
            for key, text in (("scatter", eq), ("gather", fat)):
                whole = _median_us([lambda: cluster.query(text)] * 30)
                slowest = max(
                    _median_us([lambda c=c: c.query_rows(text)] * 30)
                    for c in clients)
                out[f"shard.coordinator.{key}_overhead_us"] = whole - slowest
        finally:
            for client in clients:
                client.close()

        def pin():
            with cluster.read_view():
                pass

        out["shard.coordinator.view_pin_us"] = _median_us([pin] * 30)
    finally:
        cluster.stop()
    return out


def _storage(db: Database, scratch: str, plan) -> dict[str, float]:
    out = {}
    records = [WalRecord(TEXT_UPDATE, u.nid, text=u.values[i % 2])
               for i in range(20) for u in plan][:2000]
    for sync in ("flush", "fsync"):
        path = os.path.join(scratch, f"wal-{sync}.log")
        log = WriteAheadLog(path, sync=sync)
        try:
            out[f"storage.wal.append_{sync}_us"] = _median_us(
                (lambda r=r: log.append(r)) for r in records[:300])
            if sync == "flush":
                for record in records[300:]:
                    log.append(record)
        finally:
            log.close()
    replayed = len(records)
    out["storage.wal.replay_records_per_s"] = replayed / _seconds(
        lambda: list(replay_records(os.path.join(scratch, "wal-flush.log"))))
    saved = os.path.join(scratch, "saved")
    seconds = _seconds(lambda: save_manager(db.manager, saved), 1)
    megabytes = engines.dir_bytes(saved) / 1e6
    out["storage.persist.save_mb_per_s"] = megabytes / seconds
    out["storage.persist.load_mb_per_s"] = megabytes / _seconds(
        lambda: load_manager(saved), 1)
    out["storage.persist.bytes_per_node"] = (
        engines.dir_bytes(saved) / db.store.total_nodes())
    start = _clock()
    db.checkpoint()
    out["storage.persist.checkpoint_ms"] = (_clock() - start) * 1e3
    return out


def _wire_and_server(server: engines.Wire, pool, rows1k) -> dict[str, float]:
    requests = [{"id": i, "op": "query", "xpath": q.text,
                 "use_indexes": True, "rows": True}
                for i, q in enumerate(pool)]
    frames = [wire.encode_frame(r) for r in requests]
    out = {
        "wire.encode_small_us": _median_us(
            (lambda r=r: wire.encode_frame(r)) for r in requests * 4),
        "wire.decode_small_us": _median_us(
            (lambda f=f: json.loads(f[4:])) for f in frames * 4),
    }
    response = wire.ok_response(1, {"rows": rows1k})
    frame = wire.encode_frame(response)
    out["wire.encode_rows1k_us"] = _median_us(
        [lambda: wire.encode_frame(response)] * 30)
    out["wire.decode_rows1k_us"] = _median_us(
        [lambda: json.loads(frame[4:])] * 30)
    out["wire.bytes_per_row"] = len(frame) / len(rows1k)

    client = server.client
    out["server.ping_us"] = _median_us([client.ping] * 400)
    eq = [q for q in pool if q.cls == "eq"]
    usual = _median_us(
        (lambda q=q: client.query_rows(q.text, q.document)) for q in eq)
    # A read sent right behind an un-awaited checkpoint waits for the
    # stop-the-world snapshot; what it waits beyond a usual read is
    # the stall.
    stalls = []
    for query in eq[:3]:
        pending = client.send("checkpoint")
        start = _clock()
        client.query_rows(query.text, query.document)
        stalls.append((_clock() - start) * 1e6 - usual)
        client.receive(pending)
    out["server.checkpoint_stall_us"] = measure.median(stalls)

    done = [0, 0]

    def reader(slot: int) -> None:
        with server.connect() as conn:
            deadline = _clock() + 1.0
            while _clock() < deadline:
                for query in eq:
                    conn.query_rows(query.text, query.document)
                    done[slot] += 1

    threads = [threading.Thread(target=reader, args=(slot,))
               for slot in range(2)]
    start = _clock()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    out["server.two_conn_query_per_s"] = sum(done) / (_clock() - start)
    out["server.busy_rejections"] = client.metrics()["counters"].get(
        "server.busy_rejections", 0)
    return out


def _obs() -> dict[str, float]:
    registry = MetricsRegistry()
    counter = registry.counter("probe")
    timer = registry.timer("probe")

    def incs():
        for _ in range(100_000):
            counter.inc()

    def times():
        for _ in range(50_000):
            with timer.time():
                pass

    return {"obs.counter_inc_ns": _seconds(incs) / 100_000 * 1e9,
            "obs.timer_ns": _seconds(times) / 50_000 * 1e9}


def layer_suite(db: Database, server: engines.Wire, pool, xmark_pool, plan,
                rows1k, scratch: str) -> dict[str, float]:
    """Every per-layer metric that is timed call by call.  ``pool`` is
    the workload's own texts; ``xmark_pool`` supplies index literals and
    the cluster's queries (the same pool except in ``bulk_lifecycle``,
    whose catalog texts carry no literal shapes)."""
    corpus = inputs.xmark_corpus()
    out = {}
    out.update(_xmldb_and_build(corpus["xmark11"]))
    out.update(_core_lookups(db, xmark_pool, plan))
    out.update(_hash_collisions())
    out.update(_btree())
    out.update(_query_layers(db, pool))
    out.update(_coordinator(scratch, xmark_pool, corpus))
    out.update(_storage(db, scratch, plan))
    out.update(_wire_and_server(server, pool, rows1k))
    out.update(_obs())
    return out


# ----------------------------------------------------------------------
# Counter deltas around the workload's own operations
# ----------------------------------------------------------------------


def _hit_ratio(deltas: dict[str, float]) -> float:
    hits = deltas.get("query.plan_cache.hits", 0)
    misses = deltas.get("query.plan_cache.misses", 0)
    return hits / max(hits + misses, 1)


def _update_counters(target, plan, outcome: Outcome) -> dict[str, float]:
    """One block of the workload's durable updates bracketed by the
    engine's counters and the size of its WAL."""
    wal = os.path.join(target.path, "wal.log")
    before, size = target.metrics(), os.path.getsize(wal)
    latencies = []
    for index, update in enumerate(plan * 2):
        start = _clock()
        target.update_text(update.nid, update.values[index % 2])
        latencies.append(_clock() - start)
        target.query_rows(engines.PROBE)  # next read pays the epoch bump
    deltas = counter_delta(before, target.metrics())
    updates = len(latencies)
    outcome.attempted += updates
    return {
        "storage.wal.fsyncs_per_update":
            deltas.get("wal.fsyncs", 0) / updates,
        "storage.wal.bytes_per_update":
            (os.path.getsize(wal) - size) / updates,
        "storage.groupcommit.batch_mean":
            deltas.get("wal.group.records", 0)
            / max(deltas.get("wal.group.batches", 0), 1),
        "core.statistics.refreshes_per_update":
            (deltas.get("statistics.refreshes", 0)
             + deltas.get("statistics.view_builds", 0)) / updates,
        "bench.update_p95_us": measure.percentile(latencies, 0.95) * 1e6,
    }


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------


def _plain_passes(one_pass, outcome: Outcome, metrics_of,
                  children=()) -> dict[str, float]:
    """``PLAIN_PASSES`` untraced passes: the counters around them and
    the median over them of each pass's own statistics."""
    before = metrics_of()
    outcome.record([bracketed(one_pass, children)
                    for _ in range(PLAIN_PASSES)])
    outcome.counters = counter_delta(before, metrics_of())
    seen = outcome.ungated
    return {
        "core.manager.plan_cache_hit_ratio": _hit_ratio(outcome.counters),
        "bench.pass_spread_pct": measure.spread_pct(
            [p["query_per_s"] for p in outcome.per_pass]),
        "query_p95_us": seen["query_p95_us"],
        "query_per_s": seen["query_per_s"],
        "cpu_ms_per_op": seen["cpu_ms_per_op"],
        "bench.query_p99_us": seen["query_p99_us"],
    }


def _trace_summary(tracer: tracing.Tracer, plain: dict) -> dict[str, float]:
    reads = [s for s in tracer.spans if s["name"] == "op.read"]
    eq = [s for s in reads if s["cls"] == "eq"]
    seen = sum(s["client_seen_s"] for s in reads)
    return {
        "server.unattributed_us": measure.median(
            [s["client_seen_s"] - s["replayed_s"] for s in eq]) * 1e6,
        "bench.tracing_overhead_pct":
            100.0 * (seen * plain["query_per_s"] / len(reads) - 1.0),
    }


def _write_trace(workload: str, tracer: tracing.Tracer, metrics: dict,
                 notes: dict) -> None:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{workload}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "metrics": metrics,
                   "self_times": tracing.self_times(tracer.spans),
                   "notes": notes, "spans": tracer.spans}, fh)
        fh.write("\n")


def _rows_1k(answers: dict) -> list[list]:
    """A 1 000-row response built from the workload's fattest answer."""
    fattest = max(answers.values(), key=len)
    rows = [list(row) for row in fattest]
    return (rows * (1000 // len(rows) + 1))[:1000]


def _trace_xmark(ctx: dict, workload: str) -> None:
    target, outcome = ctx["target"], ctx["outcome"]
    pool, plan, sequence = ctx["pool"], ctx["plan"], ctx["sequence"]
    over_wire = isinstance(target, engines.Wire)
    metrics = _plain_passes(ctx["one_pass"], outcome, target.metrics,
                            target.child_pids())

    scratch = os.path.join(OUT, f"scratch-{workload}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    # The other half: an in-process engine for a wire target, a server
    # for an embedded one, on a copy of the checkpointed directory.
    if over_wire:
        target.client.checkpoint()
    else:
        target.db.checkpoint()
    replica_dir = os.path.join(scratch, "replica")
    shutil.copytree(target.path, replica_dir)
    other = (engines.Embedded if over_wire else engines.Wire)(replica_dir)
    other.start()
    try:
        db = other.db if over_wire else target.db
        server = target if over_wire else other
        if over_wire:  # the replica's caches start cold; the server's are warm
            for query in pool:
                db.query_rows(query.text)
        tracer = tracing.Tracer()
        stats = PassStats()
        answers: list = []
        scratch_wal = WriteAheadLog(os.path.join(scratch, "trace-wal.log"),
                                    sync="fsync")
        try:
            explained: set[str] = set()
            pending = iter(plan if workload == "wire_mixed" else ())
            for index, query in enumerate(sequence):
                seconds, rows = tracing.traced_read(
                    tracer, target, db, over_wire, query,
                    explain=query.text not in explained)
                explained.add(query.text)
                stats.reads.append((query, seconds))
                answers.append((query, rows))
                if (index + 1) % MIXED_READS_PER_UPDATE == 0:
                    update = next(pending, None)
                    if update is not None:
                        stats.updates.append((update.nid, tracing.traced_update(
                            tracer, target, db, over_wire, scratch_wal,
                            update.nid, update.values[0])))
        finally:
            scratch_wal.close()
        check_answers(answers, ctx["expected"], stats)
        outcome.attempted += stats.ops
        outcome.failed += stats.failed
        metrics.update(_trace_summary(tracer, outcome.per_pass[-1]))

        metrics.update(_update_counters(target, plan, outcome))
        metrics.update(layer_suite(db, server, pool, pool, plan,
                                   _rows_1k(ctx["expected"]), scratch))
    finally:
        other.stop()
        shutil.rmtree(scratch, ignore_errors=True)
    outcome.metrics.update(metrics)
    _write_trace(workload, tracer, metrics, outcome.notes)


def _trace_lifecycle(ctx: dict) -> None:
    outcome, plan, path = ctx["outcome"], ctx["plan"], ctx["path"]
    scratch = os.path.join(OUT, "scratch-bulk_lifecycle")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    counters: list[dict] = []

    def plain_cycle() -> PassStats:
        stats, setup_row, db = ctx["one_cycle"]()
        outcome.setups.append(setup_row)
        counters.append(db.metrics())
        db.close(checkpoint=False)
        return stats

    def metrics_of() -> dict:
        # Every cycle recovers into a fresh process-local registry, so
        # the last cycle's own counters are the delta.
        return counters[-1] if len(counters) == PLAIN_PASSES else {
            "counters": {}}

    metrics = _plain_passes(plain_cycle, outcome, metrics_of)
    tracer = tracing.Tracer()
    stats, _setup, db = lifecycle_cycle(
        path, plan, ctx["sequence"], ctx["expected"], ctx["probe"],
        tracer=tracer)
    try:
        outcome.attempted += stats.ops
        outcome.failed += stats.failed
        metrics.update(_trace_summary(tracer, outcome.per_pass[-1]))
        metrics.update(_update_counters(
            engines.Embedded(path, db), plan, outcome))
        db.checkpoint()
        replica_dir = os.path.join(scratch, "replica")
        shutil.copytree(path, replica_dir)
        server = engines.Wire(replica_dir)
        server.start()
        try:
            # Index literals come from the XMark read pool: the lookups
            # may miss in this corpus, and it is their cost that is
            # timed, not their result.
            xmark_pool = inputs.query_pool(
                inputs.CorpusValues(inputs.xmark_corpus()), 0)
            metrics.update(layer_suite(
                db, server, ctx["catalog"], xmark_pool, plan,
                _rows_1k(ctx["expected"]), scratch))
        finally:
            server.stop()
    finally:
        db.close(checkpoint=False)
        shutil.rmtree(scratch, ignore_errors=True)
    outcome.metrics.update(metrics)
    _write_trace("bulk_lifecycle", tracer, metrics, outcome.notes)


def traced_run(workload: str, seed: int, seconds: float) -> Outcome:
    """Set up once, run plain passes and one traced pass, measure every
    per-layer metric, write ``perf/out/trace-<workload>.json``."""
    if workload == "bulk_lifecycle":
        return run_workload(workload, seed, seconds, hooks=_trace_lifecycle)
    return run_workload(workload, seed, seconds,
                        hooks=lambda ctx: _trace_xmark(ctx, workload))
