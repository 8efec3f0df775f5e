"""Ablations A1-A5 and the beyond-paper rows, with their naive baselines.

Each baseline here implements the *naive* alternative the paper argues
against, so the ablations can quantify the benefit of the published
design:

* ``rehash_update`` — maintain the string index without the
  combination function ``C``: every affected ancestor re-reads its
  full string value from the document and re-hashes it (paper
  Section 3: "Obviously, for large documents this is very
  inefficient").
* ``refsm_update`` — maintain the typed index without the SCT:
  every affected ancestor re-reads its string value and re-runs the
  FSM over it.
* :class:`LockingTransactionManager` — strict two-phase ancestor
  locking, the transaction discipline Section 5.1 rejects.

:func:`run` measures A1-A5 and the beyond-paper rows (per-corpus query
workloads, the cost-based planner, scaling, persistence, the substring
index) at one bench scale and returns plain dicts; :func:`claims`
checks every shape the rows stand for.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import threading
import time
from typing import Iterable

from ..core import IndexManager, apply_text_updates
from ..core.builder import build_document
from ..core.string_index import StringIndex
from ..core.typed_index import TypedIndex
from ..errors import TransactionStateError
from ..query import explain, query
from ..storage import load_manager, save_manager
from ..txn import TransactionManager
from ..workloads import (DATASETS, bench_scale, dataset, generate_xmark,
                         random_text_updates, text_nids)
from ..workloads.queries import QUERY_SETS, queries_for
from ..xmldb.document import TEXT, Document
from ..xmldb.store import Store
from .harness import claim, measure_seconds, print_claims, render_table

__all__ = [
    "rehash_update", "refsm_update", "LockingTransactionManager",
    "LockingTransaction", "run", "claims", "format_report", "report",
    "main",
]


def _affected(store: Store, nids: Iterable[int]) -> list[tuple[Document, int, int]]:
    """Updated nodes plus all their ancestors as (doc, pre, nid)."""
    seen: set[int] = set()
    result = []
    for nid in nids:
        doc, pre = store.node(nid)
        if nid not in seen:
            seen.add(nid)
            result.append((doc, pre, nid))
        if doc.kind[pre] != TEXT:
            continue
        for ancestor in doc.ancestors(pre):
            ancestor_nid = doc.nid[ancestor]
            if ancestor_nid in seen:
                break
            seen.add(ancestor_nid)
            result.append((doc, ancestor, ancestor_nid))
    return result


def rehash_update(store: Store, index: StringIndex, nids: Iterable[int]) -> int:
    """String-index maintenance *without* ``C``: re-read and re-hash the
    full string value of every affected node."""
    affected = _affected(store, nids)
    index.set_entries(
        [nid for _doc, _pre, nid in affected],
        [index.field_of_text(doc.string_value(pre)) for doc, pre, _nid in affected],
    )
    return len(affected)


def refsm_update(store: Store, index: TypedIndex, nids: Iterable[int]) -> int:
    """Typed-index maintenance *without* the SCT: re-read and re-run the
    FSM over the full string value of every affected node."""
    affected = _affected(store, nids)
    fragment_of_text = index.plugin.fragment_of_text
    index.set_entries(
        [nid for _doc, _pre, nid in affected],
        [fragment_of_text(doc.string_value(pre)) for doc, pre, _nid in affected],
    )
    return len(affected)


# ---------------------------------------------------------------------------
# A5 baseline: ancestor-locking transactions
# ---------------------------------------------------------------------------
#
# "A general challenge in XML value indexing is that the value of a node
# is (potentially) influenced by all its descendants.  This implies that
# each update may impact the root node, and locking the root for each
# transaction can easily become a bottleneck."
#
# This manager implements that naive discipline faithfully: a text-node
# write takes *exclusive* locks on the node and every ancestor up to the
# document node (strict two-phase locking — locks are held until commit
# or abort), and the write is applied in place with an undo log.  Any
# two transactions on the same document therefore serialise on the root
# lock, however disjoint their writes — which is exactly what A5 shows
# against the optimistic, commutativity-based
# :class:`~repro.txn.manager.TransactionManager`.
#
# Deadlocks are avoided by acquiring each write's lock set in global nid
# order and by releasing-and-retrying when a later lock cannot be taken
# within a bounded wait.

_ACQUIRE_TIMEOUT = 0.05


class LockingTransactionManager:
    """Hands out strict-2PL transactions with ancestor locking."""

    def __init__(self, index_manager: IndexManager):
        self.index_manager = index_manager
        self._registry_mutex = threading.Lock()
        self._locks: dict[int, threading.Lock] = {}
        # Contention statistics (the root-bottleneck evidence).
        self.stats_mutex = threading.Lock()
        self.lock_acquisitions = 0
        self.lock_retries = 0
        self.lock_wait_seconds = 0.0

    def _lock_for(self, nid: int) -> threading.Lock:
        with self._registry_mutex:
            lock = self._locks.get(nid)
            if lock is None:
                lock = threading.Lock()
                self._locks[nid] = lock
            return lock

    def begin(self) -> "LockingTransaction":
        return LockingTransaction(self)


class LockingTransaction:
    """One strict-2PL transaction: locks held until commit/abort."""

    def __init__(self, manager: LockingTransactionManager):
        self._manager = manager
        self._held: dict[int, threading.Lock] = {}
        self._undo: list[tuple[int, str]] = []
        self._touched: list[int] = []
        self.status = "active"

    def _require_active(self) -> None:
        if self.status != "active":
            raise TransactionStateError(f"transaction is {self.status}")

    # ------------------------------------------------------------------
    # Locking
    # ------------------------------------------------------------------

    def _lock_set_for(self, nid: int) -> list[int]:
        """The node plus all its ancestors — the paper's problem case."""
        store = self._manager.index_manager.store
        doc, pre = store.node(nid)
        wanted = {nid}
        wanted.update(doc.nid[ancestor] for ancestor in doc.ancestors(pre))
        return sorted(wanted)

    def _acquire(self, nids: list[int]) -> None:
        """Take exclusive locks in global nid order, retrying from
        scratch on timeout (deadlock avoidance)."""
        manager = self._manager
        missing = [nid for nid in nids if nid not in self._held]
        start = time.perf_counter()
        while True:
            taken: list[int] = []
            for nid in missing:
                lock = manager._lock_for(nid)
                if lock.acquire(timeout=_ACQUIRE_TIMEOUT):
                    taken.append(nid)
                    self._held[nid] = lock
                else:
                    # Back off completely and retry: classic
                    # wait-die-free timeout scheme.
                    for got in taken:
                        self._held.pop(got).release()
                    with manager.stats_mutex:
                        manager.lock_retries += 1
                    break
            else:
                with manager.stats_mutex:
                    manager.lock_acquisitions += len(missing)
                    manager.lock_wait_seconds += time.perf_counter() - start
                return

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def update_text(self, nid: int, new_text: str) -> None:
        """Lock node + ancestors, then write in place (undo-logged)."""
        self._require_active()
        store = self._manager.index_manager.store
        doc, pre = store.node(nid)
        if doc.text_id[pre] < 0:
            raise TransactionStateError(f"node {nid} has no text value")
        self._acquire(self._lock_set_for(nid))
        self._undo.append((nid, doc.text_of(pre)))
        store.update_text(nid, new_text)
        self._touched.append(nid)

    def read_text(self, nid: int) -> str:
        self._require_active()
        doc, pre = self._manager.index_manager.store.node(nid)
        return doc.text_of(pre)

    # ------------------------------------------------------------------
    # Outcome
    # ------------------------------------------------------------------

    def _release_all(self) -> None:
        for lock in self._held.values():
            lock.release()
        self._held.clear()

    def commit(self) -> None:
        """Run index maintenance under the held locks, then release."""
        self._require_active()
        try:
            if self._touched:
                apply_text_updates(
                    self._manager.index_manager.store,
                    self._touched,
                    self._manager.index_manager.indexes,
                )
                self._manager.index_manager.bump_epoch()
        finally:
            self._release_all()
        self.status = "committed"

    def abort(self) -> None:
        """Undo in-place writes, then release."""
        self._require_active()
        store = self._manager.index_manager.store
        try:
            for nid, old_text in reversed(self._undo):
                store.update_text(nid, old_text)
            if self._touched:
                apply_text_updates(
                    store, self._touched, self._manager.index_manager.indexes
                )
                self._manager.index_manager.bump_epoch()
        finally:
            self._release_all()
        self.status = "aborted"

    def __enter__(self) -> "LockingTransaction":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        if self.status != "active":
            return
        if exc_type is None:
            self.commit()
        else:
            self.abort()


# ---------------------------------------------------------------------------
# Experiments: each returns a plain dict of measurements
# ---------------------------------------------------------------------------


def _loaded(name: str, scale: float, **indexes) -> IndexManager:
    manager = IndexManager(**indexes)
    manager.load(name, dataset(name).build(scale))
    return manager


def _timed(fn) -> float:
    return measure_seconds(fn, 1)[0]


def _best(fn, repeats: int) -> float:
    return min(_timed(fn) for _ in range(repeats))


def _update_both(managers, name: str, count: int, seed: int) -> list[int]:
    """Apply the same random text updates to every manager's store;
    return the updated nids."""
    updates = random_text_updates(
        managers[0].store.document(name), count, random.Random(seed)
    )
    for manager in managers:
        for nid, text in updates:
            manager.store.update_text(nid, text)
    return [nid for nid, _ in updates]


def combine_vs_rehash(scale: float) -> dict:
    """A1: maintain the string index of XMark8 through ``C`` and by
    re-hashing every affected ancestor's full string value."""
    with_c, without_c = (_loaded("XMark8", scale, typed=()) for _ in "ab")
    nids = _update_both((with_c, without_c), "XMark8", 10, 99)
    return {
        "c_seconds": _timed(
            lambda: apply_text_updates(with_c.store, nids, with_c.indexes)),
        "rehash_seconds": _timed(
            lambda: rehash_update(without_c.store, without_c.string_index,
                                  nids)),
        "same_hashes": (with_c.string_index.fields
                        == without_c.string_index.fields),
    }


def sct_vs_refsm(scale: float) -> dict:
    """A2: maintain the double index of PSD through the SCT fold and by
    re-running the FSM over every affected ancestor's string value."""
    with_sct, without_sct = (
        _loaded("PSD", scale, string=False, typed=("double",)) for _ in "ab"
    )
    nids = _update_both((with_sct, without_sct), "PSD", 25, 23)
    left = with_sct.typed_index("double")
    right = without_sct.typed_index("double")
    return {
        "sct_seconds": _timed(
            lambda: apply_text_updates(with_sct.store, nids,
                                       with_sct.indexes)),
        "refsm_seconds": _timed(
            lambda: refsm_update(without_sct.store, right, nids)),
        "same_states": (
            {nid: f.state for nid, f in left.fields.items()}
            == {nid: f.state for nid, f in right.fields.items()}
        ),
        "same_keys": list(left.tree.keys()) == list(right.tree.keys()),
    }


def query_speedup(scale: float) -> dict:
    """A3: four selective paper-shaped queries over XMark4, through the
    indices and by full scan."""
    manager = _loaded("XMark4", scale, typed=("double",))
    doc = manager.store.document("XMark4")
    word = next(
        doc.text_of(p)
        for p in range(len(doc))
        if doc.kind[p] == TEXT and doc.name_of(doc.parent(p)) == "name"
    )
    texts = [
        f'//item[name = "{word}"]',
        "//item[quantity = 5]",
        "//open_auction[initial < 1]",
        "//person[age >= 97]",
    ]
    result = {"queries": len(texts), "index_plans": 0, "differing": 0,
              "index_seconds": 0.0, "scan_seconds": 0.0}
    for text in texts:
        result["index_plans"] += explain(manager, text).startswith("index")
        index_s, indexed = measure_seconds(lambda: query(manager, text), 1)
        scan_s, scanned = measure_seconds(
            lambda: query(manager, text, use_indexes=False), 1)
        result["differing"] += indexed != scanned
        result["index_seconds"] += index_s
        result["scan_seconds"] += scan_s
    return result


def single_pass(scale: float) -> dict:
    """A4: string, double and dateTime indices of DBLP built in one
    creation pass and in one pass per index (best of 3)."""
    doc = Store().add_document("DBLP", dataset("DBLP").build(scale))

    def fresh():
        return StringIndex(), TypedIndex("double"), TypedIndex("dateTime")

    def one_pass():
        indexes = fresh()
        build_document(doc, list(indexes))
        return indexes

    def separate_passes():
        indexes = fresh()
        for index in indexes:
            build_document(doc, [index])
        return indexes

    (s1, d1, t1), (s2, d2, t2) = one_pass(), separate_passes()
    return {
        "one_pass_seconds": _best(one_pass, 3),
        "separate_seconds": _best(separate_passes, 3),
        "same_string_hashes": s1.fields == s2.fields,
        "same_double_fragments": d1.fields == d2.fields,
        "same_double_keys": list(d1.tree.keys()) == list(d2.tree.keys()),
        "same_datetime_fragments": t1.fields == t2.fields,
    }


#: A5 workload: transactions, each with this much think time between
#: its write and its commit.
_WORKERS = 8
_THINK_SECONDS = 0.01


def locking(scale: float) -> dict:
    """A5: _WORKERS transactions on distinct XMark1 text nodes, under the
    optimistic manager and under ancestor locking."""

    def workload(make_txns) -> tuple[float, int]:
        manager = _loaded("XMark1", scale, typed=())
        nids = text_nids(manager.store.document("XMark1"))
        step = max(1, len(nids) // _WORKERS)
        begin = make_txns(manager).begin
        errors = []

        def worker(nid):
            try:
                txn = begin()
                txn.update_text(nid, "updated value")
                time.sleep(_THINK_SECONDS)
                txn.commit()
            except Exception as exc:  # counted, not raised
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(nids[i * step],))
                   for i in range(_WORKERS)]

        def start_and_join():
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        elapsed = _timed(start_and_join)
        manager.check_consistency()
        return elapsed, len(errors)

    optimistic, optimistic_errors = workload(TransactionManager)
    locked, locking_errors = workload(LockingTransactionManager)
    return {"optimistic_seconds": optimistic, "locking_seconds": locked,
            "errors": optimistic_errors + locking_errors}


#: Corpora of the per-dataset query workloads.
_QUERY_CORPORA = ("XMark4", "DBLP", "PSD", "Wiki", "EPAGeo")


def dataset_queries(scale: float) -> dict:
    """Each corpus's query set through the planner and by full scan."""
    rows = {}
    for name in _QUERY_CORPORA:
        manager = _loaded(name, scale, typed=("double",))
        row = rows[name] = {"queries": 0, "differing": 0,
                            "index_seconds": 0.0, "scan_seconds": 0.0}
        for _description, text in queries_for(name):
            index_s, indexed = measure_seconds(
                lambda: query(manager, text), 1)
            scan_s, scanned = measure_seconds(
                lambda: query(manager, text, use_indexes=False), 1)
            row["queries"] += 1
            row["differing"] += indexed != scanned
            row["index_seconds"] += index_s
            row["scan_seconds"] += scan_s
    return rows


def planner_auto(scale: float) -> dict:
    """The cost-based ``auto`` mode on XMark8 against forced index and
    forced scan plans (best of 3), plus plan-cache reuse."""
    manager = _loaded("XMark8", scale, typed=("double",))
    manager.statistics("double")  # warm the snapshot outside the timings
    manager.statistics("string")
    result = {}
    for label, text in (("selective", "//person[age = 55]"),
                        ("unselective", "//item[price >= 0]")):
        scan = query(manager, text, use_indexes=False)
        result[f"{label}_differing"] = sum(
            query(manager, text, use_indexes=mode) != scan
            for mode in (True, "auto")
        )
        for mode, key in ((True, "index"), ("auto", "auto"), (False, "scan")):
            result[f"{label}_{key}_seconds"] = _best(
                lambda: query(manager, text, use_indexes=mode), 3)
    before = manager.metrics.snapshot()["counters"]
    for _ in range(10):
        query(manager, "//person[age = 55]", use_indexes="auto")
    after = manager.metrics.snapshot()["counters"]
    for key in ("hits", "misses"):
        counter = f"query.plan_cache.{key}"
        result[f"plan_cache_{key}"] = (after.get(counter, 0)
                                       - before.get(counter, 0))
    return result


#: XMark generator scales of the scaling sweep (independent of the
#: bench scale: the sweep is its own size axis).
_SCALING_SCALES = (0.05, 0.1, 0.2, 0.4)


def scaling(scale: float) -> dict:
    """String-index creation (best of 3) and a point lookup (best of
    20) over XMark documents 8x apart in size."""
    docs = [Store().add_document(f"x{s}", generate_xmark(s, seed=3))
            for s in _SCALING_SCALES]
    nodes, build, lookup = [], [], []
    for doc in docs:
        nodes.append(len(doc))
        build.append(_best(lambda: build_document(doc, [StringIndex()]), 3))
        manager = IndexManager(typed=("double",))
        manager.load(doc.name, doc.serialize())
        lookup.append(_best(
            lambda: list(manager.lookup_typed_equal("double", 55.0)), 20))
    return {"nodes": nodes, "build_seconds": build, "lookup_seconds": lookup}


def persistence(scale: float) -> dict:
    """Save and open XMark4's indices against re-shredding and
    re-indexing it from XML."""
    xml = dataset("XMark4").build(scale)
    manager = IndexManager(typed=("double",))
    manager.load("XMark4", xml)
    path = tempfile.mkdtemp(prefix="bench-persist-")
    try:
        save_seconds = _timed(lambda: save_manager(manager, path))
        disk_bytes = sum(os.path.getsize(os.path.join(path, f))
                         for f in os.listdir(path))
        open_seconds, loaded = measure_seconds(lambda: load_manager(path), 1)
    finally:
        shutil.rmtree(path, ignore_errors=True)
    rebuilt = IndexManager(typed=("double",))
    rebuild_seconds = _timed(lambda: rebuilt.load("XMark4", xml))
    return {
        "save_seconds": save_seconds,
        "open_seconds": open_seconds,
        "rebuild_seconds": rebuild_seconds,
        "disk_bytes": disk_bytes,
        "modelled_bytes": (manager.store.byte_size()
                           + sum(manager.index_sizes().values())),
        "same_as_saved": (loaded.string_index.fields
                          == manager.string_index.fields),
        "same_as_rebuilt": (loaded.string_index.fields
                            == rebuilt.string_index.fields),
    }


def substring(scale: float) -> dict:
    """``contains`` on Wiki through the q-gram index and by scan, each
    timed cold (empty text-lookup memo, best of 5)."""
    with_index = _loaded("Wiki", scale, string=False, typed=(),
                         substring=True)
    without_index = _loaded("Wiki", scale, string=False, typed=())
    doc = with_index.store.document("Wiki")
    url = next(
        doc.text_of(p)
        for p in range(len(doc))
        if doc.text_id[p] >= 0 and doc.text_of(p).startswith("http")
    )
    needle = url[-8:]  # a URL path suffix: a handful of leaves

    def cold(manager):
        def probe():
            manager._text_lookup_cache.clear()
            return sorted(manager.lookup_contains(needle))
        runs = [measure_seconds(probe, 1) for _ in range(5)]
        return min(runs, key=lambda timed: timed[0])

    index_s, indexed = cold(with_index)
    scan_s, scanned = cold(without_index)
    return {
        "needle": needle,
        "index_entries": len(with_index.substring_index),
        "hits": len(indexed),
        "scan_hits": len(scanned),
        "same_hits": indexed == scanned,
        "index_seconds": index_s,
        "scan_seconds": scan_s,
        "storage_fraction": (with_index.substring_index.byte_size()
                             / with_index.store.byte_size()),
    }


EXPERIMENTS = {
    "a1": combine_vs_rehash,
    "a2": sct_vs_refsm,
    "a3": query_speedup,
    "a4": single_pass,
    "a5": locking,
    "queries": dataset_queries,
    "planner": planner_auto,
    "scaling": scaling,
    "persistence": persistence,
    "substring": substring,
}


def run(scale: float | None = None) -> dict[str, dict]:
    """Every experiment at one bench scale: id -> measurements."""
    scale = bench_scale() if scale is None else scale
    return {key: experiment(scale) for key, experiment in EXPERIMENTS.items()}


def claims(result: dict[str, dict]) -> list[dict]:
    """The direction of every ablation, and equal answers both ways."""
    a1, a2, a3, a4, a5 = (result[f"a{i}"] for i in range(1, 6))
    planner, scale_row = result["planner"], result["scaling"]
    persist, sub = result["persistence"], result["substring"]
    nodes = scale_row["nodes"]
    per_node = [s / n for s, n in zip(scale_row["build_seconds"], nodes)]
    lookups = scale_row["lookup_seconds"]
    records = [
        claim("a1.same_hashes", a1["same_hashes"], "==", True),
        claim("a1.combine_beats_rehash",
              a1["c_seconds"] / a1["rehash_seconds"], "<", 1, timing=True),
        claim("a2.same_states", a2["same_states"], "==", True),
        claim("a2.same_keys", a2["same_keys"], "==", True),
        claim("a3.plans_use_index", a3["index_plans"], "==", a3["queries"]),
        claim("a3.answers_differ", a3["differing"], "==", 0),
        claim("a3.index_beats_scan",
              a3["index_seconds"] / a3["scan_seconds"], "<", 1, timing=True),
    ] + [
        claim(f"a4.{key}", a4[key], "==", True)
        for key in ("same_string_hashes", "same_double_fragments",
                    "same_double_keys", "same_datetime_fragments")
    ] + [
        claim("a5.errors", a5["errors"], "==", 0),
        claim("a5.locking_serialises", a5["locking_seconds"], ">=",
              _WORKERS * _THINK_SECONDS * 0.9, timing=True),
        claim("a5.optimistic_beats_locking",
              a5["optimistic_seconds"] / a5["locking_seconds"], "<", 1,
              timing=True),
    ] + [
        claim(f"queries.answers_differ.{name}", row["differing"], "==", 0)
        for name, row in result["queries"].items()
    ] + [
        claim("queries.sets_cover_catalog", sorted(QUERY_SETS), "==",
              sorted(DATASETS)),
        claim("queries.empty_sets",
              sum(not pairs for pairs in QUERY_SETS.values()), "==", 0),
        claim("planner.selective_answers_differ",
              planner["selective_differing"], "==", 0),
        claim("planner.unselective_answers_differ",
              planner["unselective_differing"], "==", 0),
        claim("planner.plan_cache_misses", planner["plan_cache_misses"],
              "<=", 1),
        claim("planner.plan_cache_hits", planner["plan_cache_hits"],
              ">=", 9),
        claim("planner.auto_beats_scan_selective",
              planner["selective_auto_seconds"]
              / planner["selective_scan_seconds"], "<", 1, timing=True),
        claim("planner.auto_near_index_unselective",
              planner["unselective_auto_seconds"]
              / planner["unselective_index_seconds"], "<", 3, timing=True),
        claim("scaling.creation_linear", max(per_node) / min(per_node),
              "<", 3, timing=True),
        claim("scaling.lookup_sublinear",
              (lookups[-1] / lookups[0]) / (nodes[-1] / nodes[0]), "<", 1,
              timing=True),
        claim("persistence.disk_bytes", persist["disk_bytes"], ">", 0),
        claim("persistence.same_as_saved", persist["same_as_saved"], "==",
              True),
        claim("persistence.same_as_rebuilt", persist["same_as_rebuilt"],
              "==", True),
        claim("persistence.open_beats_rebuild",
              persist["open_seconds"] / persist["rebuild_seconds"], "<", 1,
              timing=True),
        claim("substring.index_entries", sub["index_entries"], ">", 0),
        claim("substring.hits", sub["hits"], ">", 0),
        claim("substring.scan_hits", sub["scan_hits"], "==", sub["hits"]),
        claim("substring.same_hits", sub["same_hits"], "==", True),
        claim("substring.index_beats_scan_cold",
              sub["index_seconds"] / sub["scan_seconds"], "<", 1,
              timing=True),
    ]
    return records


def _us(seconds: float) -> str:
    return f"{seconds * 1e6:,.0f}"


def format_report(result: dict[str, dict]) -> str:
    """One row per timed comparison: the design, its naive
    alternative, and how many times faster the design is."""
    a1, a2, a3, a4, a5 = (result[f"a{i}"] for i in range(1, 6))
    planner, persist = result["planner"], result["persistence"]
    sub, scale_row = result["substring"], result["scaling"]
    pairs = [
        ("A1 10 updates, XMark8", "combine C", a1["c_seconds"],
         "full re-hash", a1["rehash_seconds"]),
        ("A2 25 updates, PSD", "SCT fold", a2["sct_seconds"],
         "re-run FSM", a2["refsm_seconds"]),
        ("A3 4 selective queries, XMark4", "index", a3["index_seconds"],
         "scan", a3["scan_seconds"]),
        ("A4 3 indices, DBLP", "one pass", a4["one_pass_seconds"],
         "pass per index", a4["separate_seconds"]),
        (f"A5 {_WORKERS} txns, {_THINK_SECONDS * 1000:.0f} ms think",
         "optimistic", a5["optimistic_seconds"],
         "ancestor locks", a5["locking_seconds"]),
    ] + [
        (f"{row['queries']} workload queries, {name}", "index",
         row["index_seconds"], "scan", row["scan_seconds"])
        for name, row in result["queries"].items()
    ] + [
        ("planner, selective", "auto", planner["selective_auto_seconds"],
         "scan", planner["selective_scan_seconds"]),
        ("planner, unselective", "auto",
         planner["unselective_auto_seconds"], "forced index",
         planner["unselective_index_seconds"]),
        ("open vs rebuild, XMark4", "open", persist["open_seconds"],
         "re-shred + index", persist["rebuild_seconds"]),
        (f"contains {sub['needle']!r} cold, Wiki", "q-gram index",
         sub["index_seconds"], "scan", sub["scan_seconds"]),
    ]
    rows = [
        [what, design, _us(fast), naive, _us(slow), f"{slow / fast:.1f}x"]
        for what, design, fast, naive, slow in pairs
    ]
    lines = [render_table(
        ["Ablation", "Design", "µs", "Alternative", "µs", "Speedup"], rows)]
    nodes = scale_row["nodes"]
    lines.append(
        "Scaling: nodes " + " / ".join(f"{n:,}" for n in nodes)
        + "; creation ns/node " + " / ".join(
            f"{s / n * 1e9:.0f}"
            for s, n in zip(scale_row["build_seconds"], nodes))
        + "; point lookup µs " + " / ".join(
            f"{s * 1e6:.0f}" for s in scale_row["lookup_seconds"]))
    lines.append(
        f"Persistence: {persist['disk_bytes']:,} B on disk vs "
        f"{persist['modelled_bytes']:,} B modelled "
        f"({persist['disk_bytes'] / persist['modelled_bytes']:.2f}x); "
        f"substring index {sub['storage_fraction']:.0%} of the database")
    return "\n".join(lines)


def report(result: dict[str, dict]) -> str:
    return "Ablations and beyond-paper rows\n" + format_report(result)


def main() -> int:
    result = run()
    print(report(result))
    return print_claims(claims(result))


if __name__ == "__main__":
    raise SystemExit(main())
