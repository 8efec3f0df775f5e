"""The four workloads and the pass statistics they share.

Every workload is a closed loop with one client thread and one
connection.  Nothing is timed before the process has been busy for a
few seconds; measured passes repeat the identical seeded operation
sequence; ``gc.collect()`` and every comparison with a checked answer
happen between passes, outside the timed intervals.

The gated latencies are built from *floors*: the fastest repetition of
every distinct operation over all measured passes (see
:func:`floor_metrics`).  On the shared two-core box this benchmark is
written for, interference only ever adds time, in episodes that last
from a millisecond to half a minute - longer than a whole run can
average away - while the floor of an operation repeated ninety times
moves by a few percent.  What a floor cannot see - a stall that hits
some repetitions only, the tail, the throughput and the CPU a pass
really cost - is measured per pass and reported as the median over
passes (:func:`pass_metrics`); those numbers carry no bound.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import shutil
import signal
import subprocess
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from perf import OUT, engines, inputs, measure, tracing
from perf.engines import PROBE, as_tuples
from perf.inputs import CLASSES, Query, Update

from repro.client import ClientError
from repro.database import Database
from repro.errors import ReproError

__all__ = ["Outcome", "PassStats", "bracketed", "check_answers",
           "counter_delta", "floor_metrics", "lifecycle_cycle", "pass_metrics",
           "run_workload"]

#: The XMark workloads run in rounds: measured passes on the engine
#: under test, then a fresh timed set-up beside it and (read workloads)
#: blocks of durable updates on that fresh engine.  The repetitions of
#: every operation are thereby spread over the whole run, and no slow
#: spell of the box covers them all; the engine the passes read is
#: never written to.
ROUNDS = 3
PASSES_PER_ROUND = 3   # at least; more when ``--seconds`` allows
#: Busy time before the first timed set-up and before the first pass.
SETUP_WARMUP_S = 1.5
PASS_WARMUP_S = 1.0
#: Draws per text and pass.  A range read costs 6 ms against 0.4 ms
#: for an eq read, so equal draws would spend 80 % of every pass in one
#: class; 320 eq + 64 range + 64 fat = 448 reads per pass.
READ_DRAWS = {"eq": 8, "range": 4, "fat": 8}
MIXED_DRAWS = {"eq": 1, "range": 1, "fat": 1}   # 64 reads + 16 updates
#: Read workloads: each of the 100 nodes is rewritten 18 times in a run
#: (a floor over ten repetitions still moves by 14 %).
BLOCKS_PER_ROUND = 6
BLOCK_UPDATES = 100
MIXED_READS_PER_UPDATE = 4
#: ``bulk_lifecycle``: the doomed child rewrites 100 nodes four times,
#: 400 durable updates a cycle, so a node's floor is over 20 repetitions.
LIFECYCLE_NODES = 100
LIFECYCLE_REWRITES = 4
#: 23 catalog texts, one of them fat at this scale: 22 x 36 + 144 = 936
#: reads per cycle (a class of one text needs the extra draws).
LIFECYCLE_DRAWS = {"eq": 36, "range": 36, "fat": 144}
MIN_CYCLES = 5

_OP_ERRORS = (ClientError, ReproError, OSError)


@dataclass
class PassStats:
    """One pass (or lifecycle cycle): latencies in seconds."""

    reads: list[tuple[Query, float]] = field(default_factory=list)
    updates: list[tuple[int, float]] = field(default_factory=list)
    #: CPU (bench process + children) and wall seconds of the pass,
    #: set by the caller that brackets it.
    cpu_s: float = 0.0
    wall_s: float = 0.0
    failed: int = 0
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def all_reads(self) -> list[float]:
        return [seconds for _query, seconds in self.reads]

    @property
    def ops(self) -> int:
        return len(self.reads) + len(self.updates) + self.failed

    def class_p50_us(self, cls: str) -> float:
        """Median over the class's texts of each text's median latency.

        A class mixes shapes of different cost in fixed shares, so the
        plain median of its reads sits between two modes and flips
        with a handful of samples; per-text medians first, then the
        median text, does not.
        """
        by_text: dict[tuple, list[float]] = {}
        for query, seconds in self.reads:
            if query.cls == cls:
                by_text.setdefault((query.text, query.document),
                                   []).append(seconds)
        return measure.median(
            [measure.median(v) for v in by_text.values()]) * 1e6

    def summary(self) -> dict[str, float]:
        """The pass's own medians and tails, for the result file."""
        out = dict(self.extra)
        if self.reads:
            reads = self.all_reads
            for cls in CLASSES:
                out[f"{cls}_p50_us"] = self.class_p50_us(cls)
            out["query_p95_us"] = measure.percentile(reads, 0.95) * 1e6
            out["query_p99_us"] = measure.percentile(reads, 0.99) * 1e6
            out["query_per_s"] = len(reads) / sum(reads)
        if self.updates:
            updates = [seconds for _nid, seconds in self.updates]
            out["update_p50_us"] = measure.median(updates) * 1e6
            out["update_p95_us"] = measure.percentile(updates, 0.95) * 1e6
        if self.cpu_s:
            out["cpu_ms_per_op"] = self.cpu_s * 1e3 / self.ops
        return out


def floor_metrics(passes: list[PassStats], sequence,
                  blocks=()) -> dict[str, float]:
    """The gated latencies of a run, from all its passes (and the
    update ``blocks`` of a read workload).

    The floor of an operation is its fastest repetition: a read's over
    every draw of its text in every pass, an update's over every pass
    or block that rewrote its node.

    * ``<class>_p50_us``: the median over the class's texts of their
      floors (texts, not reads: a class mixes shapes of different cost,
      and the median text does not flip with a handful of samples);
    * ``update_p50_us``: the median over the updated nodes of their
      floors.
    """
    reads: dict[tuple, float] = {}
    updates: dict[int, float] = {}
    for stats in (*passes, *blocks):
        for query, seconds in stats.reads:
            key = (query.text, query.document)
            reads[key] = min(seconds, reads.get(key, seconds))
        for nid, seconds in stats.updates:
            updates[nid] = min(seconds, updates.get(nid, seconds))
    classes = {(q.text, q.document): q.cls for q in sequence}
    out = {}
    for cls in CLASSES:
        out[f"{cls}_p50_us"] = measure.median(
            [floor for key, floor in reads.items()
             if classes[key] == cls]) * 1e6
    out["update_p50_us"] = measure.median(list(updates.values())) * 1e6
    return out


#: What :func:`pass_metrics` reports; every name is a key of
#: :meth:`PassStats.summary`.
PASS_METRICS = ("query_p95_us", "query_p99_us", "query_per_s",
                "cpu_ms_per_op", "update_p95_us")


def pass_metrics(summaries: list[dict[str, float]]) -> dict[str, float]:
    """The median over passes of each pass's own statistic: the p95 and
    p99 over the reads of a pass, reads per second of read time, CPU
    (bench process and children) per operation, the p95 over its
    durable updates.  Real samples, slow spells and all: ten runs of
    one commit spread two to three times as much on these as on the
    floors, which is why none of them is gated."""
    return {name: measure.median([s[name] for s in summaries])
            for name in PASS_METRICS if name in summaries[0]}


@dataclass
class Outcome:
    """What one run of one workload produced."""

    workload: str
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    per_pass: list[dict[str, float]] = field(default_factory=list)
    setups: list[dict] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    notes: dict[str, object] = field(default_factory=dict)
    #: :func:`pass_metrics` of the measured passes (no bounds).
    ungated: dict[str, float] = field(default_factory=dict)
    _born: float = field(default_factory=time.perf_counter)

    def phase(self, name: str) -> None:
        """Record the wall time at which phase ``name`` ended."""
        self.notes.setdefault("phase_ends_s", {})[name] = round(
            time.perf_counter() - self._born, 3)

    def record(self, passes: list[PassStats], blocks=()) -> None:
        """Count the operations of the measured passes (and update
        blocks) and keep each pass's own statistics for the result
        file."""
        for stats in (*passes, *blocks):
            self.attempted += stats.ops
            self.failed += stats.failed
        self.per_pass += [stats.summary() for stats in passes]
        self.ungated = pass_metrics(self.per_pass)
        if blocks:
            self.notes["update_block_p50_us"] = [
                stats.summary()["update_p50_us"] for stats in blocks]


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------


def _timed_read(target, query: Query, stats: PassStats, answers: list):
    clock = time.perf_counter
    try:
        start = clock()
        rows = target.query_rows(query.text, query.document)
        elapsed = clock() - start
    except _OP_ERRORS:
        stats.failed += 1
        return
    stats.reads.append((query, elapsed))
    answers.append((query, rows))


def _timed_update(target, update: Update, parity: int, stats: PassStats):
    clock = time.perf_counter
    try:
        start = clock()
        target.update_text(update.nid, update.values[parity])
        elapsed = clock() - start
    except _OP_ERRORS:
        stats.failed += 1
        return
    stats.updates.append((update.nid, elapsed))


def check_answers(answers, expected, stats: PassStats) -> None:
    """Compare every read of a pass with its checked answer (between
    passes); a mismatch is a failed op."""
    for query, rows in answers:
        if as_tuples(rows) != expected[query.text, query.document]:
            stats.failed += 1


def read_pass(target, sequence, expected) -> PassStats:
    stats = PassStats()
    answers: list = []
    for query in sequence:
        _timed_read(target, query, stats, answers)
    check_answers(answers, expected, stats)
    return stats


def mixed_pass(target, sequence, updates, parity, expected) -> PassStats:
    """``MIXED_READS_PER_UPDATE`` reads, then one durable update, and so
    on; one checkpoint is sent un-awaited half-way through and its
    reply collected after the pass, so the read right behind it meets
    the stop-the-world snapshot."""
    stats = PassStats()
    answers: list = []
    pending = iter(updates)
    checkpoint_at = len(sequence) // 2
    checkpoint_id = None
    for index, query in enumerate(sequence):
        if index == checkpoint_at:
            checkpoint_id = target.client.send("checkpoint")
        answered = len(answers)
        _timed_read(target, query, stats, answers)
        if index == checkpoint_at and len(answers) > answered:
            stats.extra["checkpoint_stall_us"] = stats.reads[-1][1] * 1e6
        if (index + 1) % MIXED_READS_PER_UPDATE == 0:
            update = next(pending, None)
            if update is not None:
                _timed_update(target, update, parity, stats)
    try:
        target.client.receive(checkpoint_id)
    except _OP_ERRORS:
        stats.failed += 1
    check_answers(answers, expected, stats)
    return stats


def bracketed(run_pass, children: tuple[int, ...] = ()) -> PassStats:
    """``run_pass()`` with the pass's CPU and wall seconds filled in."""
    started = time.perf_counter()
    cpu_before = measure.cpu_seconds(children)
    stats = run_pass()
    stats.cpu_s = measure.cpu_seconds(children) - cpu_before
    stats.wall_s = time.perf_counter() - started
    return stats


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------


def oracle_check(target, queries, expected: dict, outcome: Outcome,
                 documents=None, offset: int = 0, records: int = 0) -> None:
    """Every distinct text against ``use_indexes=False``.

    A full scan of the four XMark documents costs 20-35 ms per text, so
    a corpus-wide text is scanned on one document per check, chosen
    round-robin by ``offset``: the indexed answer restricted to that
    document must equal the scan.  On the first call the indexed answer
    becomes the checked answer every timed read is compared with; later
    calls also require it to repeat.
    """
    scans = []
    for index, query in enumerate(queries):
        scope = query.document or documents[(index + offset) % len(documents)]
        try:
            scans.append((scope, as_tuples(target.query_rows(
                query.text, scope, use_indexes=False))))
        except _OP_ERRORS:
            scans.append((scope, None))
    # All scans first: their plans are keyed apart from the reads', and
    # interleaving them would leave scan plans in the plan cache, which
    # the 256 read plans fill exactly.
    for query, (scope, oracle) in zip(queries, scans):
        outcome.attempted += 1
        try:
            indexed = as_tuples(target.query_rows(query.text, query.document))
        except _OP_ERRORS:
            indexed = None
        if oracle is None or indexed is None:
            outcome.failed += 1
            continue
        if records:
            low, high = inputs.class_row_limits(query.cls, records)
            if not low <= len(indexed) <= high:
                raise RuntimeError(
                    f"{query.text!r} returns {len(indexed)} rows, outside "
                    f"its class {query.cls!r} ({low}-{high})")
        key = (query.text, query.document)
        if ([row for row in indexed if row[0] == scope] != oracle
                or expected.setdefault(key, indexed) != indexed):
            outcome.failed += 1


# ----------------------------------------------------------------------
# The three XMark workloads
# ----------------------------------------------------------------------


def _nids(target, paths) -> list[int]:
    """Text-node ids under ``paths`` (document order, all documents)."""
    return [nid for path in paths for nid in target.query(path)]


def counter_delta(before: dict, after: dict) -> dict[str, float]:
    names = set(before["counters"]) | set(after["counters"])
    return {name: after["counters"].get(name, 0)
            - before["counters"].get(name, 0) for name in sorted(names)}


def _timed_setup(target, outcome: Outcome, probe: list | None) -> list:
    """One fresh, timed set-up of ``target`` (left running); its first
    answer must be ``probe``, the oracle's answer, which the first
    set-up of a run fetches and returns."""
    try:
        times, answer = engines.set_up(target, inputs.xmark_corpus)
        if probe is None:
            probe = as_tuples(target.query_rows(PROBE, use_indexes=False))
    except BaseException:
        target.stop()
        raise
    outcome.setups.append(times.row())
    outcome.attempted += 1
    outcome.failed += as_tuples(answer) != probe
    return probe


def _setup_metrics(outcome: Outcome) -> None:
    """The set-up metrics from the timed set-ups of the run: every
    phase (generate, each document's load, checkpoint, close, reopen)
    at its floor over the set-ups.  The byte ratio is an exact count,
    the same in all of them."""
    rows = outcome.setups
    floors = {phase: min(row["phases"][phase] for row in rows)
              for phase in rows[0]["phases"]}
    outcome.notes["setup_phase_floors_s"] = floors
    outcome.metrics["setup_s"] = sum(floors.values())
    outcome.metrics["reopen_s"] = floors["reopen"]
    outcome.metrics["build_nodes_per_s"] = rows[0]["nodes"] / sum(
        seconds for phase, seconds in floors.items()
        if phase.startswith("load:"))
    outcome.metrics["disk_bytes_per_xml_byte"] = (
        rows[0]["disk_bytes"] / rows[0]["xml_bytes"])


def run_xmark(name: str, seed: int, seconds: float, hooks=None) -> Outcome:
    """``embed_read``, ``wire_read`` and ``wire_mixed``.

    ``hooks`` is the traced run's way in: with it the workload sets up
    once and hands the running target, the inputs and the pass runner
    to ``hooks(context)`` instead of measuring end-to-end metrics.
    """
    mixed = name == "wire_mixed"
    target_cls = engines.Embedded if name == "embed_read" else engines.Wire
    outcome = Outcome(name)
    path = os.path.join(OUT, f"db-{name}")
    values = inputs.CorpusValues(inputs.xmark_corpus())
    pool = inputs.query_pool(values, seed)
    sequence = inputs.read_sequence(
        pool, seed, MIXED_DRAWS if mixed else READ_DRAWS)
    outcome.phase("inputs")
    measure.busy_warmup(inputs.xmark_corpus, SETUP_WARMUP_S)
    target = target_cls(path)
    probe = _timed_setup(target, outcome, None)
    outcome.phase("first_setup")
    try:
        plan = inputs.update_plan(
            _nids(target, inputs.UPDATE_STRING_PATHS),
            _nids(target, inputs.UPDATE_NUMERIC_PATHS), seed,
            len(sequence) // MIXED_READS_PER_UPDATE if mixed
            else BLOCK_UPDATES)
        expected: dict = {}
        documents = sorted(inputs.xmark_corpus_names())
        oracle_check(target, pool, expected, outcome, documents, 0,
                     records=len(values.items))
        outcome.phase("oracle_before")

        passes_run = itertools.count()

        def one_pass() -> PassStats:
            gc.collect()
            if not mixed:
                return read_pass(target, sequence, expected)
            return mixed_pass(target, sequence, plan,
                              next(passes_run) % 2, expected)

        measure.busy_warmup(one_pass, PASS_WARMUP_S)
        outcome.phase("pass_warmup")
        if hooks is not None:
            hooks(dict(target=target, pool=pool, sequence=sequence,
                       plan=plan, expected=expected, one_pass=one_pass,
                       outcome=outcome))
            _setup_metrics(outcome)
            return outcome

        counters_before = target.metrics()
        side = target_cls(path + "-side")
        passes: list[PassStats] = []
        blocks: list[PassStats] = []
        pass_seconds = 0.0
        for done in range(1, ROUNDS + 1):
            # A further pass only while it brings the time spent in
            # passes closer to this round's share of ``--seconds``.
            while (len(passes) < done * PASSES_PER_ROUND
                   or pass_seconds * (1 + 0.5 / len(passes))
                   < seconds * done / ROUNDS):
                stats = bracketed(one_pass, target.child_pids())
                pass_seconds += stats.wall_s
                passes.append(stats)
            _timed_setup(side, outcome, probe)
            try:
                if not mixed:
                    blocks += _update_blocks(side, plan)
            finally:
                side.stop()
        outcome.counters = counter_delta(counters_before, target.metrics())
        outcome.phase("rounds")
        outcome.record(passes, blocks)
        outcome.metrics.update(floor_metrics(passes, sequence, blocks))
        oracle_check(target, pool, expected, outcome, documents, 1)
        outcome.phase("oracle_after")
        outcome.metrics["peak_rss_mb"] = measure.vm_hwm_mb(
            target.engine_pid())
    finally:
        target.stop()
        shutil.rmtree(path, ignore_errors=True)
        shutil.rmtree(path + "-side", ignore_errors=True)
        outcome.phase("stopped")
    _setup_metrics(outcome)
    return outcome


def _update_blocks(target, plan) -> list[PassStats]:
    """Read workloads: ``BLOCKS_PER_ROUND`` times the durable updates of
    ``plan``, the two values of every node alternating."""
    blocks = []
    for block in range(BLOCKS_PER_ROUND):
        gc.collect()
        stats = PassStats()
        for update in plan:
            _timed_update(target, update, block % 2, stats)
        blocks.append(stats)
    return blocks


# ----------------------------------------------------------------------
# bulk_lifecycle
# ----------------------------------------------------------------------


def _lifecycle_updates(path: str, seed: int) -> list[Update]:
    """Update targets of the lifecycle corpus (XMark fields no catalog
    query reads).  Node ids are a pure function of the load order, so
    the plan of one build holds for every later cycle."""
    db = Database(path, **engines.FLUSH_POLICY)
    try:
        strings = [nid for p in inputs.UPDATE_STRING_PATHS
                   for nid in db.query(p, document="XMark1")]
        numbers = [nid for p in inputs.UPDATE_NUMERIC_PATHS
                   for nid in db.query(p, document="XMark1")]
    finally:
        db.close(checkpoint=False)
    return inputs.update_plan(strings, numbers, seed, LIFECYCLE_NODES)


def _doomed_updater(path: str, updates: list[tuple[int, str]],
                    stats: PassStats) -> list[tuple[int, str]]:
    """Run the updater child over ``updates`` and SIGKILL it after its
    last ack; returns the acknowledged updates."""
    proc = engines.spawn_child("updater", path, stdin=subprocess.PIPE,
                               stdout=subprocess.PIPE)
    acked: list[tuple[int, str]] = []
    try:
        proc.stdin.write(json.dumps(updates) + "\n")
        proc.stdin.flush()
        for nid, text in updates:
            line = proc.stdout.readline().split()
            if len(line) != 2 or int(line[0]) != nid:
                break
            acked.append((nid, text))
            stats.updates.append((nid, float(line[1])))
        else:
            proc.stdout.readline()  # "done": nothing is in flight
            measure.require_same_core(proc.pid)
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait()
        proc.stdin.close()
        proc.stdout.close()
    stats.failed += len(updates) - len(acked)
    return acked


def _span(tracer, name: str):
    return nullcontext() if tracer is None else tracer.span(name)


def lifecycle_cycle(path: str, plan, sequence, expected, probe,
                    tracer=None) -> tuple[PassStats, dict, Database]:
    """One cycle; returns the open database so the caller can run
    ``verify()`` on the last one.  With a ``tracer`` every phase gets a
    span and every read is replayed (see :mod:`perf.tracing`)."""
    stats = PassStats()
    with _span(tracer, "lifecycle.build"):
        times = engines.build_database(path, inputs.lifecycle_corpus)
    updates = [(u.nid, u.values[rewrite % 2])
               for rewrite in range(LIFECYCLE_REWRITES) for u in plan]
    with _span(tracer, "lifecycle.updater_child"):
        acked = _doomed_updater(path, updates, stats)

    with _span(tracer, "lifecycle.reopen"):
        start = time.perf_counter()
        db = Database(path, **engines.FLUSH_POLICY)
        first = db.query_rows(PROBE)
        times.reopen_s = time.perf_counter() - start
    if as_tuples(first) != probe:
        stats.failed += 1
    # Every acknowledged update must have survived the kill.
    for nid, text in dict(acked).items():   # a node's last acked text
        doc, pre = db.store.node(nid)
        if doc.text_of(pre) != text:
            stats.failed += 1
    if db.recovery.replayed != len(acked):
        stats.failed += 1

    answers: list = []
    explained: set[str] = set()
    for query in sequence:
        if tracer is None:
            _timed_read(db, query, stats, answers)
            continue
        seconds, rows = tracing.traced_read(
            tracer, db, db, False, query, query.text not in explained)
        explained.add(query.text)
        stats.reads.append((query, seconds))
        answers.append((query, rows))
    check_answers(answers, expected, stats)
    return stats, times.row(), db


def run_lifecycle(seed: int, seconds: float, hooks=None) -> Outcome:
    outcome = Outcome("bulk_lifecycle")
    path = os.path.join(OUT, "db-bulk_lifecycle")

    # Un-timed first build: the update plan, the class labels and the
    # checked answers all come from it, and it is the busy warm-up
    # before the first timed cycle.
    engines.build_database(path, inputs.lifecycle_corpus)
    plan = _lifecycle_updates(path, seed)
    db = Database(path, **engines.FLUSH_POLICY)
    try:
        probe = as_tuples(db.query_rows(PROBE, use_indexes=False))
        expected: dict = {}
        catalog = []
        for document, text in inputs.catalog_queries():
            rows = len(db.query_rows(text, document))
            catalog.append(Query(text, inputs.catalog_class(text, rows),
                                 "catalog", document))
        oracle_check(db, catalog, expected, outcome)
    finally:
        db.close(checkpoint=False)
    sequence = inputs.read_sequence(catalog, f"lifecycle-{seed}",
                                    LIFECYCLE_DRAWS)
    outcome.notes["catalog_classes"] = {
        f"{q.document}:{q.text}": q.cls for q in catalog}

    def one_cycle():
        gc.collect()
        return lifecycle_cycle(path, plan, sequence, expected, probe)

    if hooks is not None:
        hooks(dict(one_cycle=one_cycle, outcome=outcome, plan=plan,
                   path=path, catalog=catalog, sequence=sequence,
                   expected=expected, probe=probe))
        shutil.rmtree(path, ignore_errors=True)
        _setup_metrics(outcome)
        return outcome

    db = None

    def timed_cycle() -> PassStats:
        nonlocal db
        if db is not None:
            db.close(checkpoint=False)
        stats, setup_row, db = one_cycle()
        outcome.setups.append(setup_row)
        return stats

    cycles: list[PassStats] = []
    started = time.perf_counter()
    try:
        while (len(cycles) < MIN_CYCLES
               or time.perf_counter() - started < seconds):
            cycles.append(bracketed(timed_cycle))
        outcome.record(cycles)
        _setup_metrics(outcome)
        outcome.metrics.update(floor_metrics(cycles, sequence))
        outcome.counters = db.metrics()["counters"]
        # First-principles integrity check of the recovered database,
        # once per run and outside every timed interval.
        outcome.attempted += 1
        report = db.verify()
        if not report.ok:
            outcome.failed += 1
            outcome.notes["verify"] = report.summary()
        oracle_check(db, catalog, expected, outcome)
    finally:
        if db is not None:
            db.close(checkpoint=False)
        shutil.rmtree(path, ignore_errors=True)
    outcome.metrics["peak_rss_mb"] = measure.vm_hwm_mb()
    return outcome


def run_workload(name: str, seed: int, seconds: float, hooks=None) -> Outcome:
    os.makedirs(OUT, exist_ok=True)
    if name == "bulk_lifecycle":
        return run_lifecycle(seed, seconds, hooks)
    if name in ("embed_read", "wire_read", "wire_mixed"):
        return run_xmark(name, seed, seconds, hooks)
    raise ValueError(f"unknown workload {name!r}")
