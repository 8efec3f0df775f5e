"""Scatter-gather coordinator over per-document shard workers.

:class:`ShardCluster` runs N shard workers (separate OS processes by
default — one engine per core is the whole point — or in-process
:class:`~repro.server.ServerThread`\\ s for fast tests), places whole
documents on shards via the :class:`~repro.shard.manifest.ShardingManifest`,
and presents the familiar engine API on top:

* **updates** are routed to the single shard owning the document, so
  every engine guarantee (WAL, group commit, acked ⇒ durable) holds
  unchanged — an update never spans shards;
* **queries** scatter to every owning shard over the wire protocol
  (predicates travel with the query text, so each shard runs its own
  index plans and only ``(document, pre, nid)`` row batches come
  back), and the gather side k-way merges the per-shard sorted key
  arrays with :func:`repro.query.kernels.kway_merge` into exactly the
  order a single-shard engine would produce;
* **read views** pin a *consistent epoch vector* by two-phase
  publication: phase one pins a session view on every shard, phase
  two re-reads every shard's published epoch and retries until no
  shard advanced in between — since each update commits on exactly
  one shard, a vector observed in such a quiescent instant is a
  consistent cut;
* a shard that dies surfaces as the stable ``shard_down`` error
  (:class:`ShardDownError`) on every operation that needs it, while
  the remaining shards keep serving; :meth:`restart_shard` respawns
  the worker, whose engine recovers from its own WAL + manifest;
* the cluster is **elastic**: :meth:`migrate_document` moves one live
  document between shards (snapshot copy at a pinned epoch via the
  replication protocol, WAL tail replay, a paused-updates cutover and
  an atomic manifest flip), :meth:`rebalance` re-levels placement
  under a pluggable policy, and :meth:`resize` grows or shrinks the
  worker pool.  Queries racing a flip see the old or the new
  placement, never both: every scatter is stamped with the manifest
  version it was planned under and a shard that has moved on answers
  with the retryable ``doc_moved`` code
  (:class:`DocumentMovedError`), which :meth:`query` absorbs by
  re-planning.

``docs/sharding.md`` specifies placement, snapshots, migration and
failure semantics; ``repro.bench.shard`` measures the scale-out
claim and ``repro.bench.elastic`` the cost of a live migration.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import numpy as np

from .. import wire
from ..client import Client, ClientError
from ..errors import ReproError
from ..query.kernels import kway_merge
from ..query.plan import RemotePlan, ScatterGather, number_plan, render_plan
from ..storage import faults
from .engine import ShardEngine, require_one_mode
from .manifest import ShardingManifest

__all__ = [
    "ShardCluster", "ShardError", "ShardDownError", "DocumentMovedError",
    "ClusterView", "greedy_balance",
]

#: Bits reserved for ``pre`` in the int64 merge key
#: ``global_doc_index << PRE_BITS | pre`` (a single document may hold
#: up to 2**40 nodes before keys could collide).
PRE_BITS = 40
_PRE_MASK = (1 << PRE_BITS) - 1

#: Attempts at a stable epoch vector before giving up.
PIN_ATTEMPTS = 16

#: Extra attempts a plain (un-pinned) query makes after a ``doc_moved``
#: rejection before surfacing the error; each retry re-plans against
#: the then-current manifest, so one in-flight migration costs at most
#: one bounce.
MOVED_RETRIES = 4


class ShardError(ReproError):
    """A cluster-level failure tagged with the shard it came from."""

    code = "shard_error"

    def __init__(self, shard: int | None, message: str):
        super().__init__(message)
        self.shard = shard


class ShardDownError(ShardError):
    """The owning shard is unreachable (stable code ``shard_down``).

    Raised for every routed or scattered operation that needs the dead
    shard; other shards keep serving.  :meth:`ShardCluster.restart_shard`
    brings the worker back through ordinary WAL recovery.
    """

    code = wire.E_SHARD_DOWN


class DocumentMovedError(ShardError):
    """A scatter was planned under a manifest version a shard has
    already left behind (stable code ``doc_moved``): a migration
    flipped placement between planning and execution.  Transient —
    re-plan against the current manifest and retry, which
    :meth:`ShardCluster.query` does automatically."""

    code = wire.E_DOC_MOVED


class ClusterView:
    """A pinned cross-shard read view: one epoch per shard, one
    consistent cut overall (see module docstring).

    The view also freezes the *placement* it was pinned under
    (``plan``/``placement_version``): queries through the view scatter
    to the shards that owned each document at pin time, so a migration
    that flips the manifest mid-view cannot split or duplicate the
    view's result rows.  The source copy of a migrated document
    outlives the flip for as long as any view is open (deferred
    unload), so those pinned placements keep answering.
    """

    def __init__(self, pins: dict[int, tuple[int, int]],
                 plan: dict[int, list[str]] | None = None,
                 version: int | None = None):
        #: shard → (server view token, pinned epoch)
        self.pins = pins
        #: shard → documents it served when the view was pinned
        self.plan = plan if plan is not None else {}
        #: manifest version the plan was snapshotted at
        self.placement_version = version

    @property
    def epochs(self) -> dict[int, int]:
        """The pinned epoch vector (shard → epoch)."""
        return {shard: epoch for shard, (_view, epoch) in self.pins.items()}

    def token(self, shard: int) -> int | None:
        pin = self.pins.get(shard)
        return pin[0] if pin else None


def _src_dir() -> str:
    # .../src/repro/shard/coordinator.py → .../src
    return os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))


class _ProcessWorker:
    """One shard worker in its own OS process (the scale-out unit)."""

    def __init__(self, path: str, shard_id: int, *, sync: str,
                 checkpoint_every: int,
                 kill_at: str | None = None,
                 kill_keep_bytes: int | None = None,
                 placement_version: int | None = None):
        cmd = [
            sys.executable, "-m", "repro.shard.worker",
            "--path", path,
            "--shard-id", str(shard_id),
            "--sync", sync,
            "--checkpoint-every", str(checkpoint_every),
        ]
        if placement_version is not None:
            cmd += ["--placement-version", str(placement_version)]
        if kill_at is not None:
            cmd += ["--kill-at", kill_at]
            if kill_keep_bytes is not None:
                cmd += ["--kill-keep-bytes", str(kill_keep_bytes)]
        env = dict(os.environ)
        src = _src_dir()
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = f"{src}:{existing}" if existing else src
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, env=env, text=True
        )
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.proc.wait()
            raise ShardError(
                shard_id, f"worker for shard {shard_id} failed to start "
                f"(exit {self.proc.returncode})"
            )
        self.host = "127.0.0.1"
        self.port = int(line.split()[1])

    def alive(self) -> bool:
        return self.proc.poll() is None

    def stop(self, timeout: float = 60.0) -> None:
        if self.alive():
            self.proc.terminate()  # SIGTERM → graceful drain
        try:
            self.proc.wait(timeout=timeout)
        finally:
            self.proc.stdout.close()

    def kill(self) -> None:
        """Hard kill (test support — no drain, no checkpoint)."""
        if self.alive():
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


class _ThreadWorker:
    """One shard worker on an in-process server thread (fast tests;
    shares the GIL, so no true scale-out and no hard kill)."""

    def __init__(self, path: str, shard_id: int, *, sync: str,
                 checkpoint_every: int,
                 kill_at: str | None = None,
                 kill_keep_bytes: int | None = None,
                 placement_version: int | None = None):
        if kill_at is not None:
            raise ShardError(
                shard_id, "kill injection requires the process transport"
            )
        from ..server import ServerThread

        self.engine = ShardEngine(
            path, sync=sync, checkpoint_every=checkpoint_every,
            shard_id=shard_id,
        )
        self.thread = ServerThread(self.engine,
                                   placement_version=placement_version)
        self.host, self.port = self.thread.start()
        self._stopped = False

    def alive(self) -> bool:
        return not self._stopped

    def stop(self, timeout: float = 60.0) -> None:
        if not self._stopped:
            self._stopped = True
            self.thread.stop(timeout=timeout)

    def kill(self) -> None:
        self.stop()


class ShardCluster:
    """Coordinate N shard workers behind one engine-shaped API.

    Args:
        root: Cluster directory — ``SHARDING.json`` plus one
            ``shard-NNN/`` engine directory per shard.
        shards: Shard count for a *new* cluster (an existing
            ``SHARDING.json`` wins; passing a conflicting count is an
            error).
        config: Index configuration for new shards, e.g.
            ``{"string": True, "typed": ["double"], "substring": False}``
            — recorded in the sharding manifest so restarts and late
            shard creation agree.
        transport: ``"process"`` (one worker per OS process; the
            scale-out deployment) or ``"thread"`` (in-process server
            threads; fast tests).
        sync / checkpoint_every: Per-shard engine knobs (see
            :class:`~repro.shard.engine.ShardEngine`).
        group_commit: Accepted only as ``True`` (every shard engine
            group-commits; see
            :func:`~repro.shard.engine.require_one_mode`).
    """

    def __init__(self, root: str, shards: int | None = None,
                 config: dict[str, Any] | None = None,
                 transport: str = "process", sync: str = "flush",
                 checkpoint_every: int = 10_000,
                 group_commit: bool = True):
        require_one_mode(group_commit=group_commit)
        if transport not in ("process", "thread"):
            raise ValueError(f"unknown transport {transport!r}")
        if ShardingManifest.exists(root):
            self.manifest = ShardingManifest.load(root)
            if shards is not None and shards != self.manifest.shards:
                raise ShardError(
                    None,
                    f"cluster at {root!r} has {self.manifest.shards} "
                    f"shards; cannot reopen with {shards}",
                )
        else:
            if shards is None:
                raise ShardError(None, "new cluster needs a shard count")
            self.manifest = ShardingManifest(shards, config=config)
            self.manifest.save(root)
        self.root = root
        self.transport = transport
        self.sync = sync
        self.checkpoint_every = checkpoint_every
        self._workers: dict[int, Any] = {}
        self._clients: dict[int, Client | None] = {}
        self._client_locks: dict[int, threading.Lock] = {}
        self._kill_specs: dict[int, tuple[str, int | None]] = {}
        self._doc_index: dict[str, int] = {}
        # Elasticity state (docs/sharding.md "Elastic shards"): the
        # route lock guards manifest mutation + plan snapshots; the
        # condition gates updates during a migration cutover.
        self._route_lock = threading.RLock()
        self._route_cond = threading.Condition(self._route_lock)
        self._paused_shards: set[int] = set()
        self._inflight_updates: dict[int, int] = {}
        self._views_open = 0
        self._pending_unloads: list[tuple[int, str]] = []
        self._reindex()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "ShardCluster":
        """Create missing shard directories (with the manifest's index
        config), spawn every worker, handshake each connection, and
        :meth:`reconcile` placement against what the shards actually
        hold (repairing any migration the previous coordinator died
        mid-way through)."""
        self.create_shards()
        for shard in range(self.manifest.shards):
            self._spawn(shard)
        self.reconcile()
        return self

    def create_shards(self) -> None:
        """Create any missing shard engine directories without
        spawning workers (the ``shard-init`` CLI path)."""
        for shard in range(self.manifest.shards):
            self._ensure_shard_dir(shard)

    def addresses(self) -> dict[int, tuple[str, int]]:
        """Bound address of every running worker (shard → host, port)."""
        return {
            shard: (worker.host, worker.port)
            for shard, worker in sorted(self._workers.items())
        }

    def _ensure_shard_dir(self, shard: int) -> None:
        path = self.manifest.shard_dir(self.root, shard)
        if not os.path.exists(os.path.join(path, "MANIFEST.json")):
            config = self.manifest.config
            ShardEngine(
                path,
                string=config.get("string", True),
                typed=tuple(config.get("typed", ("double",))),
                substring=config.get("substring", False),
            ).close()

    def _spawn(self, shard: int) -> None:
        cls = _ProcessWorker if self.transport == "process" else _ThreadWorker
        kill_at, keep = self._kill_specs.pop(shard, (None, None))
        worker = cls(
            self.manifest.shard_dir(self.root, shard), shard,
            sync=self.sync, checkpoint_every=self.checkpoint_every,
            kill_at=kill_at, kill_keep_bytes=keep,
            placement_version=self.manifest.version,
        )
        self._workers[shard] = worker
        self._client_locks.setdefault(shard, threading.Lock())
        client = Client(worker.host, worker.port)
        client.handshake(features=("rows", "elastic"))
        self._clients[shard] = client

    def stop(self) -> None:
        """Drain every worker (graceful: in-flight work finishes, each
        shard checkpoints and truncates its WAL) and save the manifest."""
        with self._route_lock:
            self._views_open = 0
        self._flush_unloads()
        for client in self._clients.values():
            if client is not None:
                client.close()
        self._clients.clear()
        for worker in self._workers.values():
            worker.stop()
        self._workers.clear()
        self.manifest.save(self.root)

    def __enter__(self) -> "ShardCluster":
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()

    # -- fault-test support ---------------------------------------------

    def arm_kill(self, shard: int, point: str,
                 occurrence: int = 1,
                 keep_bytes: int | None = None) -> None:
        """Arm the *next spawn* of ``shard`` to ``os._exit`` at the
        given crashpoint occurrence (process transport only) — a real
        mid-commit process death for the fault suite."""
        spec = point if occurrence == 1 else f"{point}:{occurrence}"
        self._kill_specs[shard] = (spec, keep_bytes)

    def kill_shard(self, shard: int) -> None:
        """Hard-kill a worker immediately (no drain, no checkpoint)."""
        worker = self._workers.get(shard)
        if worker is not None:
            worker.kill()
        self._drop_client(shard)

    def restart_shard(self, shard: int) -> None:
        """Respawn one worker; its engine recovers from WAL + manifest.

        The sharding manifest is re-read from disk first: while the
        worker was down another coordinator (or an operator) may have
        migrated documents, so routing from the in-memory placement
        the dead worker was spawned under would send requests to
        shards that no longer own them.
        """
        worker = self._workers.pop(shard, None)
        if worker is not None:
            if worker.alive():
                worker.stop()
            elif isinstance(worker, _ProcessWorker):
                worker.proc.wait()
                worker.proc.stdout.close()
        self._drop_client(shard)
        with self._route_lock:
            self.manifest = ShardingManifest.load(self.root)
            self._reindex()
        self._spawn(shard)

    def shard_alive(self, shard: int) -> bool:
        worker = self._workers.get(shard)
        return worker is not None and worker.alive()

    def _drop_client(self, shard: int) -> None:
        client = self._clients.pop(shard, None)
        if client is not None:
            client.close()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _reindex(self) -> None:
        self._doc_index = {
            name: idx for idx, name in enumerate(self.manifest.doc_order)
        }

    def _client(self, shard: int) -> Client:
        client = self._clients.get(shard)
        worker = self._workers.get(shard)
        if client is None or worker is None or not worker.alive():
            raise ShardDownError(shard, f"shard {shard} is down")
        return client

    def _owner(self, document: str) -> int:
        with self._route_lock:
            shard = self.manifest.placement.get(document)
        if shard is None:
            raise ShardError(None, f"unknown document {document!r}")
        return shard

    def _routed(self, shard: int, fn):
        """Run one client call against ``shard``, mapping transport
        failures (dead socket, worker exit) to :class:`ShardDownError`.

        Serialized per shard: the coordinator's clients are plain
        blocking sockets, and migrations/queries/updates may now run
        from different threads.
        """
        lock = self._client_locks.setdefault(shard, threading.Lock())
        with lock:
            client = self._client(shard)
            try:
                return fn(client)
            except ClientError as exc:
                if exc.code == "disconnected":
                    raise ShardDownError(
                        shard, f"shard {shard} went down mid-request"
                    ) from exc
                raise
            except (ConnectionError, OSError) as exc:
                raise ShardDownError(
                    shard, f"shard {shard} unreachable: {exc}"
                ) from exc

    # -- migration cutover gate -----------------------------------------

    @contextmanager
    def _update_slot(self, document: str) -> Iterator[int]:
        """Admit one routed update: resolve the owner, wait out any
        cutover pause on it, and count the update in-flight so a
        migration can drain to a quiescent source.  The owner is
        re-resolved after every wake-up, so an update released by a
        cutover lands on the *new* shard, never the stale one."""
        with self._route_cond:
            while True:
                shard = self.manifest.placement.get(document)
                if shard is None:
                    raise ShardError(None, f"unknown document {document!r}")
                if shard not in self._paused_shards:
                    break
                self._route_cond.wait()
            self._inflight_updates[shard] = \
                self._inflight_updates.get(shard, 0) + 1
        try:
            yield shard
        finally:
            with self._route_cond:
                self._inflight_updates[shard] -= 1
                self._route_cond.notify_all()

    @contextmanager
    def _pause_updates(self, shard: int) -> Iterator[None]:
        """Block new updates to ``shard`` and wait for in-flight ones
        to drain (the migration cutover window).  Queries are never
        paused — reads stay online throughout a migration."""
        with self._route_cond:
            self._paused_shards.add(shard)
            while self._inflight_updates.get(shard, 0):
                self._route_cond.wait()
        try:
            yield
        finally:
            with self._route_cond:
                self._paused_shards.discard(shard)
                self._route_cond.notify_all()

    # ------------------------------------------------------------------
    # Documents and updates (single-shard routed)
    # ------------------------------------------------------------------

    def load(self, name: str, xml: str, shard: int | None = None) -> int:
        """Place + load one document; returns the owning shard.

        The placement is recorded in the sharding manifest *before*
        the shard loads (and the manifest is re-saved after), so a
        crash between the two leaves a placed-but-empty name, never an
        orphan document.
        """
        self._flush_unloads(name=name)
        with self._route_lock:
            target = self.manifest.place(name, shard)
            self.manifest.save(self.root)
            self._reindex()
        try:
            self._routed(target,
                         lambda c: c.call("load", name=name, xml=xml))
        except BaseException:
            with self._route_lock:
                self.manifest.unplace(name)
                self.manifest.save(self.root)
                self._reindex()
            raise
        return target

    def unload(self, name: str) -> None:
        shard = self._owner(name)
        self._flush_unloads(name=name)
        self._routed(shard, lambda c: c.call("unload", name=name))
        with self._route_lock:
            self.manifest.unplace(name)
            self.manifest.save(self.root)
            self._reindex()

    def update_text(self, document: str, nid: int, text: str,
                    busy_retries: int = 0) -> dict:
        with self._update_slot(document) as shard:
            return self._routed(
                shard, lambda c: c.update_text(nid, text,
                                               busy_retries=busy_retries))

    def insert_xml(self, document: str, nid: int, fragment: str,
                   before: int | None = None) -> dict:
        with self._update_slot(document) as shard:
            return self._routed(
                shard, lambda c: c.insert_xml(nid, fragment, before))

    def delete_subtree(self, document: str, nid: int) -> dict:
        with self._update_slot(document) as shard:
            return self._routed(shard, lambda c: c.delete_subtree(nid))

    def update(self, document: str, action: str, **params: Any) -> dict:
        """Generic routed update (any ``update`` wire action)."""
        with self._update_slot(document) as shard:
            return self._routed(
                shard, lambda c: c.call("update", action=action, **params))

    # ------------------------------------------------------------------
    # Scatter-gather reads
    # ------------------------------------------------------------------

    def _target_shards(self, document: str | None) -> list[int]:
        if document is not None:
            return [self._owner(document)]
        with self._route_lock:
            shards = sorted({
                self.manifest.placement[name]
                for name in self.manifest.doc_order
            })
        return shards

    def _placement_plan(
        self, document: str | None = None
    ) -> tuple[int, dict[int, list[str]]]:
        """An atomic snapshot of routing: the manifest version plus
        shard → owned documents (in document order).  Scatters built
        from one snapshot are internally consistent; the version stamp
        lets shards veto a plan a migration has already outrun."""
        with self._route_lock:
            version = self.manifest.version
            if document is not None:
                shard = self.manifest.placement.get(document)
                if shard is None:
                    raise ShardError(
                        None, f"unknown document {document!r}")
                return version, {shard: [document]}
            plan: dict[int, list[str]] = {}
            for name in self.manifest.doc_order:
                plan.setdefault(self.manifest.placement[name],
                                []).append(name)
        return version, plan

    def _scatter(self, shards: list[int], op: str, params) -> dict[int, dict]:
        """Pipeline one request to every shard, then gather: the sends
        all go out before the first receive blocks, so the shards
        evaluate concurrently in their own processes."""
        sent: dict[int, int] = {}
        for shard in shards:
            sent[shard] = self._routed(
                shard, lambda c, s=shard: c.send(op, **params(s)))
        results: dict[int, dict] = {}
        for shard, request_id in sent.items():
            results[shard] = self._routed(
                shard,
                lambda c, rid=request_id: c.receive(rid))
        return results

    def query(self, xpath: str, document: str | None = None,
              use_indexes: bool | str = True,
              view: ClusterView | None = None) -> list[tuple[str, int, int]]:
        """Scatter the query, gather ``(document, pre, nid)`` rows in
        global single-engine order (document load order, then pre).

        Un-pinned queries run against a placement-plan snapshot
        stamped with its manifest version; when a migration flips
        placement mid-scatter the outrun shard answers ``doc_moved``
        and the query transparently re-plans (up to
        :data:`MOVED_RETRIES` times).  Queries through a
        :class:`ClusterView` use the view's frozen plan instead — the
        pinned epochs predate any flip, and the source copy is kept
        loaded while the view is open.
        """
        if view is not None:
            plan = dict(view.plan)
            if document is not None:
                owner = next(
                    (s for s, docs in plan.items() if document in docs),
                    None)
                if owner is None:
                    raise ShardError(
                        None, f"unknown document {document!r}")
                plan = {owner: [document]}
            if not plan:
                return []
            return self._scatter_query(xpath, use_indexes, plan,
                                       view=view, version=None)
        for attempt in range(1 + MOVED_RETRIES):
            version, plan = self._placement_plan(document)
            if not plan:
                return []
            try:
                return self._scatter_query(xpath, use_indexes, plan,
                                           view=None, version=version)
            except DocumentMovedError:
                if attempt == MOVED_RETRIES:
                    raise
        raise AssertionError("unreachable")

    def _scatter_query(self, xpath: str, use_indexes: bool | str,
                       plan: dict[int, list[str]],
                       view: ClusterView | None,
                       version: int | None) -> list[tuple[str, int, int]]:
        """One scatter round over an explicit placement plan.  All
        responses are drained even when some answer ``doc_moved``
        (leaving requests in flight would desynchronize the pipelined
        per-shard connections); the move is re-raised afterwards."""
        shards = sorted(plan)

        def params(shard: int) -> dict:
            p: dict[str, Any] = {"xpath": xpath, "use_indexes": use_indexes,
                                 "rows": True, "documents": plan[shard]}
            if version is not None:
                p["placement"] = version
            if view is not None:
                token = view.token(shard)
                if token is not None:
                    p["view"] = token
            return p

        sent: dict[int, int] = {}
        for shard in shards:
            sent[shard] = self._routed(
                shard, lambda c, s=shard: c.send("query", **params(s)))
        results: dict[int, dict] = {}
        moved: DocumentMovedError | None = None
        for shard, request_id in sent.items():
            try:
                results[shard] = self._routed(
                    shard, lambda c, rid=request_id: c.receive(rid))
            except ClientError as exc:
                if exc.code == wire.E_DOC_MOVED and view is None:
                    moved = DocumentMovedError(shard, str(exc))
                    continue
                raise
        if moved is not None:
            raise moved
        return self._merge_rows(
            [(shard, result["rows"]) for shard, result in results.items()]
        )

    def query_pres(self, xpath: str, document: str | None = None,
                   use_indexes: bool | str = True,
                   view: ClusterView | None = None) -> list[tuple[str, int]]:
        """Placement-independent result shape for differential checks."""
        return [(doc, pre) for doc, pre, _nid in
                self.query(xpath, document, use_indexes, view=view)]

    def _merge_rows(
        self, per_shard: list[tuple[int, list]]
    ) -> list[tuple[str, int, int]]:
        keys_arrays: list[np.ndarray] = []
        nids_arrays: list[np.ndarray] = []
        for _shard, rows in per_shard:
            if not rows:
                continue
            gidx = np.fromiter(
                (self._doc_index[row[0]] for row in rows),
                dtype=np.int64, count=len(rows),
            )
            pres = np.fromiter((row[1] for row in rows),
                               dtype=np.int64, count=len(rows))
            nids = np.fromiter((row[2] for row in rows),
                               dtype=np.int64, count=len(rows))
            keys = (gidx << PRE_BITS) | pres
            order = np.argsort(keys, kind="stable")
            keys_arrays.append(keys[order])
            nids_arrays.append(nids[order])
        if not keys_arrays:
            return []
        merged = kway_merge(keys_arrays)
        out_nids = np.empty(merged.size, dtype=np.int64)
        for keys, nids in zip(keys_arrays, nids_arrays):
            # Placements are disjoint, so each shard's keys land in
            # unique merged slots.
            out_nids[np.searchsorted(merged, keys)] = nids
        order = self.manifest.doc_order
        return [
            (order[int(key >> PRE_BITS)], int(key & _PRE_MASK), int(nid))
            for key, nid in zip(merged, out_nids)
        ]

    def explain(self, xpath: str) -> dict:
        """Cluster-level explain: a ``ScatterGather`` root with one
        ``RemotePlan`` child per shard carrying that shard's own plan
        summary."""
        shards = self._target_shards(None)
        gathered = self._scatter(
            shards, "explain", lambda _shard: {"xpath": xpath})
        children = tuple(
            RemotePlan(
                shard,
                tuple(self.manifest.documents_on(shard)),
                summary=gathered[shard]["summary"],
            )
            for shard in shards
        )
        root = number_plan(ScatterGather(children))
        return {
            "summary": render_plan(root),
            "tree": root.to_dict(),
            "shards": {
                shard: gathered[shard] for shard in shards
            },
        }

    # ------------------------------------------------------------------
    # Cross-shard read views (two-phase epoch publication)
    # ------------------------------------------------------------------

    @contextmanager
    def read_view(self, attempts: int = PIN_ATTEMPTS) -> Iterator[ClusterView]:
        """Pin one consistent epoch vector across every shard.

        Phase one opens a session view per shard; phase two re-reads
        each shard's published epoch and accepts the vector only when
        no shard advanced between its pin and the re-read — i.e. there
        was an instant at which every pinned epoch was current, which
        (updates being single-shard) makes the vector a consistent
        cut.  On interference all pins are dropped and both phases
        retry.

        The view registers itself with the coordinator: while any
        view is open, the source copy of a migrated document is only
        *queued* for unload (see :meth:`migrate_document`), so the
        view's frozen placement plan keeps answering at its pinned
        epochs.  The queue drains when the last view closes.
        """
        with self._route_lock:
            self._views_open += 1
        try:
            view = self._pin_vector(attempts)
        except BaseException:
            self._release_view()
            raise
        try:
            yield view
        finally:
            for shard, (token, _epoch) in view.pins.items():
                try:
                    self._routed(shard, lambda c, t=token: c.close_view(t))
                except (ShardError, ClientError, OSError):
                    pass  # dead or restarted shard dropped the pin itself
            self._release_view()

    def _release_view(self) -> None:
        with self._route_lock:
            self._views_open -= 1
            if self._views_open:
                return
        self._flush_unloads()

    def _pin_vector(self, attempts: int) -> ClusterView:
        shards = list(range(self.manifest.shards))
        for _attempt in range(attempts):
            pins: dict[int, tuple[int, int]] = {}
            stable = False
            try:
                for shard in shards:
                    opened = self._routed(shard, lambda c: c.open_view())
                    pins[shard] = (opened["view"], opened["epoch"])
                # Freeze the routing plan between pin and verify: if a
                # migration flips the manifest in that window, the
                # destination's import bumped its published epoch after
                # its pin, so the verify below fails and the attempt
                # retries.  A flip *after* the verify leaves this plan
                # routing to the source shard, whose copy stays loaded
                # (deferred unload) at an epoch the pin covers.
                version, plan = self._placement_plan()
                stable = all(
                    self._routed(shard, lambda c: c.hello())["epoch"]
                    == pins[shard][1]
                    for shard in shards
                )
            finally:
                # Drop accumulated pins on interference AND when a
                # later shard's open_view/hello raised mid-loop — a
                # leaked pin on a surviving shard wedges its overlay
                # pruning until that process exits.
                if not stable:
                    for shard, (token, _epoch) in pins.items():
                        try:
                            self._routed(
                                shard, lambda c, t=token: c.close_view(t))
                        except (ShardError, ClientError, OSError):
                            pass
            if stable:
                return ClusterView(pins, plan=plan, version=version)
        raise ShardError(
            None,
            f"no consistent epoch vector after {attempts} attempts "
            "(updates kept landing between pin and verify)",
        )

    # ------------------------------------------------------------------
    # Elasticity: migration, rebalance, resize (docs/sharding.md)
    # ------------------------------------------------------------------

    def migrate_document(self, name: str, dst: int,
                         method: str = "snapshot") -> dict:
        """Move one live document from its owning shard to ``dst``.

        ``method="snapshot"`` keeps the source online for almost the
        whole copy: a throwaway :class:`~repro.repl.follower.Follower`
        snapshots the source at a pinned epoch and tails its WAL while
        updates keep landing; only the final tail drain + cutover runs
        with updates to the source paused.  ``method="direct"`` pauses
        for the whole copy (simpler; fine for small documents).

        Cutover order is the crash-safety invariant: the document is
        imported on ``dst`` *before* the manifest flips, and the
        source copy is unloaded only *after* — so at every crash point
        the manifest's owner actually holds the document
        (:meth:`reconcile` repairs the redundant copy either side of
        the flip).  Queries in flight across the flip either carry the
        old manifest version (the source still answers, or ``dst``
        rejects with retryable ``doc_moved``) or a pinned view plan
        (the source copy is retained until the last view closes).
        """
        if method not in ("snapshot", "direct"):
            raise ValueError(f"unknown migration method {method!r}")
        with self._route_lock:
            if not 0 <= dst < self.manifest.shards:
                raise ShardError(
                    dst, f"shard {dst} out of range "
                    f"(cluster has {self.manifest.shards})")
        src = self._owner(name)
        report = {"document": name, "src": src, "dst": dst,
                  "method": method, "moved": False}
        if src == dst:
            return report
        # A queued-but-unflushed unload of this name on dst (the doc
        # bounced back) would collide with the import: force it now.
        self._flush_unloads(name=name)
        started = time.monotonic()
        if method == "snapshot":
            self._migrate_snapshot(name, src, dst, report)
        else:
            self._migrate_direct(name, src, dst, report)
        report["moved"] = True
        report["duration_s"] = time.monotonic() - started
        return report

    def _migrate_snapshot(self, name: str, src: int, dst: int,
                          report: dict) -> None:
        from ..repl.follower import Follower, ReplicationError

        worker = self._workers.get(src)
        if worker is None or not worker.alive():
            raise ShardDownError(src, f"shard {src} is down")
        staging = os.path.join(self.root, f".staging-{src:03d}-{dst:03d}")
        shutil.rmtree(staging, ignore_errors=True)
        follower = Follower(staging, (worker.host, worker.port))

        def tail_once() -> int:
            # A dead source must abort the migration: an acked update
            # could still sit in an unfetched WAL segment, so the
            # snapshot is never promoted over a broken tail.
            try:
                return follower.poll_once()
            except (ClientError, ReplicationError,
                    ConnectionError, OSError) as exc:
                raise ShardDownError(
                    src, f"shard {src} went down mid-migration"
                ) from exc

        try:
            try:
                follower.sync()
            except (ClientError, ReplicationError,
                    ConnectionError, OSError) as exc:
                raise ShardDownError(
                    src, f"shard {src} went down mid-migration"
                ) from exc
            faults.crashpoint("migrate.after_sync")
            # Online tail replay: updates are still landing on src.
            while tail_once():
                pass
            with self._pause_updates(src):
                paused = time.monotonic()
                # Quiescent drain: two consecutive empty polls, so a
                # resync (returns 0 even when a tail remains) cannot
                # end the loop with frames unapplied.
                empty = 0
                while empty < 2:
                    empty = empty + 1 if tail_once() == 0 else 0
                # Belt and braces: the drain above only proves the
                # repl endpoint answered; probe the routing path too
                # before trusting the tail.
                self._routed(src, lambda c: c.ping())
                payload = follower.engine.export_document(name)
                report["bytes"] = len(payload)
                faults.crashpoint("migrate.before_import")
                self._import_to(dst, name, payload)
                faults.crashpoint("migrate.after_import")
                self._flip(name, src, dst)
                report["pause_s"] = time.monotonic() - paused
        finally:
            try:
                follower.close()
            except Exception:
                pass
            shutil.rmtree(staging, ignore_errors=True)

    def _migrate_direct(self, name: str, src: int, dst: int,
                        report: dict) -> None:
        with self._pause_updates(src):
            paused = time.monotonic()
            payload = self._export_from(src, name)
            report["bytes"] = len(payload)
            faults.crashpoint("migrate.before_import")
            self._import_to(dst, name, payload)
            faults.crashpoint("migrate.after_import")
            self._flip(name, src, dst)
            report["pause_s"] = time.monotonic() - paused

    @contextmanager
    def _transfer_client(self, shard: int) -> Iterator[Client]:
        """A dedicated connection for bulk document transfer, so the
        (possibly large, chunked) copy never holds the shard's shared
        routing client against concurrent queries."""
        worker = self._workers.get(shard)
        if worker is None or not worker.alive():
            raise ShardDownError(shard, f"shard {shard} is down")
        client = Client(worker.host, worker.port)
        try:
            client.handshake(features=("elastic",))
            yield client
        except ClientError as exc:
            if exc.code == "disconnected":
                raise ShardDownError(
                    shard, f"shard {shard} went down mid-transfer"
                ) from exc
            raise
        except (ConnectionError, OSError) as exc:
            raise ShardDownError(
                shard, f"shard {shard} unreachable: {exc}") from exc
        finally:
            client.close()

    def _export_from(self, shard: int, name: str) -> bytes:
        with self._transfer_client(shard) as client:
            return client.export_document(name)

    def _import_to(self, shard: int, name: str, payload: bytes) -> None:
        with self._transfer_client(shard) as client:
            client.import_document(name, payload)

    def _flip(self, name: str, src: int, dst: int) -> None:
        """Atomically repoint the manifest at ``dst`` and tell the
        shards about the new layout version; called with updates to
        ``src`` paused, so no update can land on the stale owner
        between the flip and the broadcast."""
        faults.crashpoint("migrate.before_flip")
        with self._route_lock:
            self.manifest.move(name, dst)
            version = self.manifest.version
            self.manifest.save(self.root)
            self._reindex()
        faults.crashpoint("migrate.after_flip")
        self._broadcast_placement(version)
        self._queue_unload(src, name)

    def _broadcast_placement(self, version: int | None = None) -> None:
        """Best-effort: push the manifest version to every live worker
        so stale-stamped scatters get ``doc_moved`` vetoes.  A worker
        that misses the broadcast (down, racing a restart) adopts the
        version from the first newer-stamped request it sees."""
        if version is None:
            with self._route_lock:
                version = self.manifest.version
        for shard in sorted(self._workers):
            try:
                self._routed(
                    shard, lambda c: c.set_placement(version))
            except (ShardError, ClientError, OSError):
                pass

    def _queue_unload(self, shard: int, name: str) -> None:
        """Unload the superseded source copy — immediately when no
        cluster views are open, else deferred until the last closes
        (their frozen plans still route this document to ``shard``)."""
        with self._route_lock:
            if self._views_open:
                self._pending_unloads.append((shard, name))
                return
        self._unload_copy(shard, name)

    def _flush_unloads(self, name: str | None = None) -> None:
        """Drain queued source-copy unloads: all of them when the last
        view closes, or just ``name``'s (forced, regardless of open
        views) when a reload/re-import is about to collide with it."""
        with self._route_lock:
            if name is None:
                if self._views_open:
                    return
                drained, self._pending_unloads = self._pending_unloads, []
            else:
                drained = [(s, n) for s, n in self._pending_unloads
                           if n == name]
                self._pending_unloads = [
                    (s, n) for s, n in self._pending_unloads if n != name]
        for shard, doc in drained:
            self._unload_copy(shard, doc)

    def _unload_copy(self, shard: int, name: str) -> None:
        try:
            self._routed(shard, lambda c: c.call("unload", name=name))
        except (ShardError, ClientError, OSError):
            pass  # dead shard: reconcile() sweeps the stray copy later

    def reconcile(self) -> dict:
        """Repair placement after an interrupted migration.

        Compares the manifest against what each live worker actually
        holds: a placed document missing from its owner but present on
        another shard is flipped to the holder (completing — or
        rolling back — whichever side of the cutover the crash landed
        on), and copies held by non-owners are unloaded.  Placed-but-
        empty names (a crash between ``place`` and ``load``) are left
        for the caller, as before.
        """
        holders: dict[int, set[str]] = {}
        for shard in sorted(self._workers):
            info = self._routed(shard, lambda c: c.hello())
            holders[shard] = set(info.get("documents", ()))
        flipped: list[tuple[str, int, int]] = []
        with self._route_lock:
            for name, owner in list(self.manifest.placement.items()):
                if owner in holders and name not in holders[owner]:
                    holder = next(
                        (s for s in sorted(holders)
                         if name in holders[s]), None)
                    if holder is not None:
                        self.manifest.move(name, holder)
                        flipped.append((name, owner, holder))
            if flipped:
                self.manifest.save(self.root)
                self._reindex()
            placement = dict(self.manifest.placement)
        if flipped:
            self._broadcast_placement()
        unloaded: list[tuple[int, str]] = []
        for shard, docs in sorted(holders.items()):
            for name in sorted(docs):
                if placement.get(name) != shard:
                    self._unload_copy(shard, name)
                    unloaded.append((shard, name))
        return {"flipped": flipped, "unloaded": unloaded}

    def _document_weights(self, weight: str = "bytes") -> dict[str, int]:
        """Per-document load weights from the owning shards' stats."""
        if weight not in ("bytes", "nodes"):
            raise ValueError(f"unknown weight {weight!r}")
        weights: dict[str, int] = {}
        for shard in sorted(self._workers):
            stats = self._routed(shard, lambda c: c.document_stats())
            with self._route_lock:
                for name, stat in stats.items():
                    if self.manifest.placement.get(name) == shard:
                        weights[name] = int(stat[weight])
        return weights

    def _query_load(self) -> dict[int, float]:
        """Per-shard ``query.executed`` counters (policy input)."""
        load: dict[int, float] = {}
        for shard in sorted(self._workers):
            try:
                snap = self._routed(shard, lambda c: c.metrics())
            except ShardError:
                continue
            load[shard] = float(
                (snap.get("counters") or {}).get("query.executed", 0))
        return load

    def rebalance(self, policy: Callable | None = None,
                  weight: str = "bytes", apply: bool = True,
                  method: str = "direct") -> dict:
        """Re-level document placement across shards.

        ``policy(assignment, weights, shards, query_load)`` returns the
        moves ``[(document, dst_shard), ...]``; the default is
        :func:`greedy_balance` over per-document ``weight`` ("bytes"
        or "nodes").  With ``apply=False`` the plan is returned
        without migrating anything.
        """
        weights = self._document_weights(weight)
        with self._route_lock:
            assignment = {
                name: self.manifest.placement[name]
                for name in self.manifest.doc_order
            }
            shards = self.manifest.shards
        chosen = policy if policy is not None else greedy_balance
        moves = list(chosen(assignment, weights, shards,
                            self._query_load()))
        loads_before = _shard_loads(assignment, weights, shards)
        result = {"moves": moves, "applied": [],
                  "loads_before": loads_before}
        if apply:
            for name, dst in moves:
                outcome = self.migrate_document(name, dst, method=method)
                if outcome["moved"]:
                    result["applied"].append((name, dst))
            with self._route_lock:
                assignment = {
                    name: self.manifest.placement[name]
                    for name in self.manifest.doc_order
                }
        else:
            for name, dst in moves:
                assignment[name] = dst
        result["loads_after"] = _shard_loads(assignment, weights, shards)
        return result

    def resize(self, shards: int, method: str = "direct",
               policy: Callable | None = None) -> dict:
        """Grow or shrink the cluster to ``shards`` workers.

        Growing registers and spawns the new (empty) shards, then
        rebalances onto them.  Shrinking migrates every document off
        the doomed shards to the least-loaded survivors, stops the
        doomed workers, and then drops them from the manifest (their
        emptied directories stay on disk).
        """
        if shards < 1:
            raise ValueError("cluster needs at least one shard")
        with self._route_lock:
            current = self.manifest.shards
        if shards == current:
            return {"shards": shards, "moves": []}
        if shards > current:
            with self._route_lock:
                self.manifest.set_shards(shards)
                self.manifest.save(self.root)
            for shard in range(current, shards):
                self._ensure_shard_dir(shard)
                self._spawn(shard)
            self._broadcast_placement()
            plan = self.rebalance(policy=policy, method=method)
            return {"shards": shards, "moves": plan["applied"],
                    "loads_after": plan["loads_after"]}
        doomed = list(range(shards, current))
        survivors = list(range(shards))
        weights = self._document_weights()
        with self._route_lock:
            assignment = dict(self.manifest.placement)
        loads = {s: 0 for s in survivors}
        for name, owner in assignment.items():
            if owner in loads:
                loads[owner] += weights.get(name, 0)
        moves: list[tuple[str, int, int]] = []
        for src in doomed:
            for name in list(self.manifest.documents_on(src)):
                dst = min(survivors, key=lambda s: (loads[s], s))
                outcome = self.migrate_document(name, dst, method=method)
                if outcome["moved"]:
                    loads[dst] += weights.get(name, 0)
                    moves.append((name, src, dst))
        # Doomed shards may still hold view-deferred source copies;
        # they die with the workers and are swept on any reconcile.
        for shard in doomed:
            worker = self._workers.pop(shard, None)
            if worker is not None:
                worker.stop()
            self._drop_client(shard)
            with self._route_lock:
                self._pending_unloads = [
                    (s, n) for s, n in self._pending_unloads if s != shard]
        with self._route_lock:
            self.manifest.set_shards(shards)
            self.manifest.save(self.root)
            self._reindex()
        self._broadcast_placement()
        return {"shards": shards, "moves": moves}

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def checkpoint(self) -> dict[int, int]:
        """Checkpoint every shard; returns shard → checkpoint epoch.
        The sharding manifest is re-saved alongside, so the cluster
        layout is always at least as new as any shard snapshot."""
        gathered = self._scatter(
            list(range(self.manifest.shards)), "checkpoint",
            lambda _shard: {})
        self.manifest.save(self.root)
        return {shard: result["epoch"]
                for shard, result in gathered.items()}

    def metrics(self) -> dict:
        """Per-shard metric snapshots plus a numeric aggregate."""
        gathered = self._scatter(
            list(range(self.manifest.shards)), "metrics",
            lambda _shard: {})
        aggregate: dict = {}
        for result in gathered.values():
            _merge_numeric(aggregate, result["metrics"])
        return {
            "aggregate": aggregate,
            "shards": {shard: result["metrics"]
                       for shard, result in gathered.items()},
        }


def _shard_loads(assignment: dict[str, int], weights: dict[str, int],
                 shards: int) -> dict[int, int]:
    loads = {shard: 0 for shard in range(shards)}
    for name, shard in assignment.items():
        loads[shard] = loads.get(shard, 0) + weights.get(name, 0)
    return loads


def greedy_balance(assignment: dict[str, int], weights: dict[str, int],
                   shards: int,
                   query_load: dict[int, float] | None = None
                   ) -> list[tuple[str, int]]:
    """Minimal-move greedy leveling (the default rebalance policy).

    Repeatedly moves the lightest document off the most-loaded shard
    onto the least-loaded one, for as long as that strictly shrinks
    the load spread.  ``query_load`` (per-shard ``query.executed``
    counters) breaks ties: among equally-loaded destinations the
    historically coldest shard wins.  Deterministic for a given input.
    """
    query_load = query_load or {}
    loads = _shard_loads(assignment, weights, shards)
    placement = dict(assignment)
    moves: list[tuple[str, int]] = []
    for _ in range(len(placement) * shards or 1):
        hi = max(loads, key=lambda s: (loads[s], -s))
        lo = min(loads, key=lambda s: (loads[s], query_load.get(s, 0.0), s))
        candidates = sorted(
            (weights.get(name, 0), name)
            for name, shard in placement.items() if shard == hi
        )
        if not candidates:
            break
        lightest, name = candidates[0]
        if loads[lo] + lightest >= loads[hi]:
            break  # no move strictly improves the spread
        placement[name] = lo
        loads[hi] -= lightest
        loads[lo] += lightest
        moves.append((name, lo))
    return moves


def _merge_numeric(into: dict, snapshot: dict) -> None:
    for key, value in snapshot.items():
        if isinstance(value, dict):
            _merge_numeric(into.setdefault(key, {}), value)
        elif isinstance(value, bool):
            into.setdefault(key, value)
        elif isinstance(value, (int, float)):
            into[key] = into.get(key, 0) + value
        else:
            into.setdefault(key, value)
