"""Chaos suite for online migration: kill either worker or the
coordinator at every protocol step; placement must stay sound.

The invariant under test (docs/sharding.md, "Elastic shards"): at
*every* crash point the sharding manifest points at a shard that
actually holds the document — the copy lands on the destination
before the flip, and the source copy is removed only after — and
:meth:`~repro.shard.ShardCluster.reconcile` restores a single-copy
layout whose query results are bit-identical to the pre-crash corpus.

Coordinator death is simulated with :class:`~repro.storage.faults`
injection at the coordinator-side ``migrate.*`` crashpoints
(:class:`InjectedCrash` is a ``BaseException``, exactly as
un-catchable as a real process death mid-protocol); worker death uses
the same crashpoints as synchronization hooks to hard-kill the real
worker process at the worst moment.
"""

import os
import threading
import time

import pytest

from repro.shard import DocumentMovedError, ShardCluster, ShardError, \
    ShardDownError
from repro.shard.manifest import ShardingManifest
from repro.storage import faults

from ..concurrent.harness import fixture_xml
from .conftest import make_cluster

PROBES = ("//p[.//age = 7]", '//p[.//name = "n3"]', "//p[.//age >= 12]")

#: Every coordinator-side step of the migration protocol, in order.
CRASHPOINTS = (
    "migrate.before_export",
    "migrate.before_import",
    "migrate.after_import",
    "migrate.before_flip",
    "migrate.after_flip",
)


def _snapshot(cluster):
    return [cluster.query_pres(text) for text in PROBES]


def _holdings(cluster):
    """shard → set of documents the worker actually holds."""
    return {
        shard: set(cluster._routed(shard, lambda c: c.hello())["documents"])
        for shard in sorted(cluster._workers)
    }


def _assert_owner_holds(cluster):
    held = _holdings(cluster)
    for name, owner in cluster.manifest.placement.items():
        assert name in held.get(owner, set()), (
            f"manifest points {name!r} at shard {owner}, which does not "
            f"hold it (holdings: {held})"
        )


class TestCoordinatorDeath:
    @pytest.mark.parametrize("point", CRASHPOINTS)
    def test_crash_at_every_point_reconciles(self, tmp_path, point):
        cluster = make_cluster(tmp_path, shards=2)
        try:
            cluster.load("mover", fixture_xml(), shard=0)
            cluster.load("anchor", fixture_xml(24), shard=1)
            before = _snapshot(cluster)

            with faults.injected(
                    faults.FaultInjector(faults.CrashPlan(point))):
                with pytest.raises(faults.InjectedCrash):
                    cluster.migrate_document("mover", 1)

            # Invariant before any repair: whatever the manifest says,
            # that shard holds the document.
            _assert_owner_holds(cluster)
            # The update gate must not stay wedged by the dead run.
            assert not cluster._paused_shards

            # A restarted coordinator reconciles stray copies away...
            report = cluster.reconcile()
            held = _holdings(cluster)
            assert sum("mover" in docs for docs in held.values()) == 1
            _assert_owner_holds(cluster)
            if point in ("migrate.after_import", "migrate.before_flip"):
                # Copy landed on dst but the flip never happened: the
                # redundant destination copy is swept.
                assert (1, "mover") in report["unloaded"]

            # ...and the corpus answers exactly as before the crash.
            assert _snapshot(cluster) == before

            # Updates and a retried migration work post-recovery.
            row = cluster.query("//age/text()", document="mover")[0]
            cluster.update_text("mover", row[2], "4321")
            assert cluster.query_pres("//p[.//age = 4321]")
            retried = cluster.migrate_document("mover", 1)
            assert retried["moved"] or cluster.manifest.placement["mover"] == 1
            _assert_owner_holds(cluster)
        finally:
            cluster.stop()

    def test_fresh_coordinator_start_reconciles(self, tmp_path):
        """A crash after the import (doc on both shards, manifest on
        src) repaired by a *new* coordinator's start(), not by the
        surviving object."""
        cluster = make_cluster(tmp_path, shards=2)
        root = cluster.root
        try:
            cluster.load("mover", fixture_xml(), shard=0)
            before = _snapshot(cluster)
            with faults.injected(faults.FaultInjector(
                    faults.CrashPlan("migrate.after_import"))):
                with pytest.raises(faults.InjectedCrash):
                    cluster.migrate_document("mover", 1)
        finally:
            cluster.stop()

        reopened = ShardCluster(root, transport="thread",
                                checkpoint_every=0).start()
        try:
            _assert_owner_holds(reopened)
            held = _holdings(reopened)
            assert sum("mover" in docs for docs in held.values()) == 1
            assert _snapshot(reopened) == before
        finally:
            reopened.stop()


class _KillWorkerAt(faults.FaultInjector):
    """Hard-kill a worker when the coordinator crosses a migrate
    crashpoint — the worker dies at the worst protocol step, while
    the coordinator itself keeps running into the failure."""

    def __init__(self, cluster, point: str, shard: int):
        super().__init__()
        self._cluster = cluster
        self._point = point
        self._shard = shard

    def on_crashpoint(self, point: str) -> None:
        super().on_crashpoint(point)
        if point == self._point:
            self._cluster.kill_shard(self._shard)


@pytest.fixture
def process_cluster(tmp_path):
    cluster = ShardCluster(
        str(tmp_path / "cluster"), shards=2, transport="process",
        checkpoint_every=0,
    ).start()
    yield cluster
    cluster.stop()


class TestWorkerDeath:
    def test_kill_source_mid_copy(self, tmp_path, process_cluster):
        cluster = process_cluster
        cluster.load("mover", fixture_xml(), shard=0)
        cluster.load("anchor", fixture_xml(24), shard=1)
        row = cluster.query("//age/text()", document="mover")[0]
        cluster.update_text("mover", row[2], "1111")  # acked pre-kill
        before = cluster.query_pres("//p[.//age >= 0]", document="mover")

        with faults.injected(
                _KillWorkerAt(cluster, "migrate.before_export", 0)):
            with pytest.raises(ShardDownError):
                cluster.migrate_document("mover", 1)

        # Migration aborted: the manifest still points at the (dead)
        # source — nothing was exported, so nothing was imported or
        # promoted.
        assert cluster.manifest.placement["mover"] == 0
        assert not cluster._paused_shards

        cluster.restart_shard(0)
        cluster.reconcile()
        _assert_owner_holds(cluster)
        # The acked update survived in the source WAL.
        assert cluster.query_pres("//p[.//age = 1111]")
        assert cluster.query_pres("//p[.//age >= 0]",
                                  document="mover") == before

        report = cluster.migrate_document("mover", 1)
        assert report["moved"]
        _assert_owner_holds(cluster)
        assert cluster.query_pres("//p[.//age >= 0]",
                                  document="mover") == before

    def test_kill_destination_mid_import(self, tmp_path, process_cluster):
        cluster = process_cluster
        cluster.load("mover", fixture_xml(), shard=0)
        before = _snapshot(cluster)

        with faults.injected(
                _KillWorkerAt(cluster, "migrate.before_import", 1)):
            with pytest.raises(ShardDownError):
                cluster.migrate_document("mover", 1)

        # The flip never happened; the source still owns and serves.
        assert cluster.manifest.placement["mover"] == 0
        assert not cluster._paused_shards
        assert _snapshot(cluster) == before

        cluster.restart_shard(1)
        cluster.reconcile()
        _assert_owner_holds(cluster)
        report = cluster.migrate_document("mover", 1)
        assert report["moved"]
        assert _snapshot(cluster) == before


class TestStaleManifest:
    def test_restart_shard_rereads_sharding_manifest(self, tmp_path):
        """Regression: restart_shard used to keep routing from the
        in-memory placement it was spawned under.  After another
        coordinator (here: forged by rewinding the in-memory copy)
        migrates a document, the restart must re-read SHARDING.json —
        pre-fix this query raises ``doc_moved`` forever."""
        cluster = make_cluster(tmp_path, shards=2)
        try:
            cluster.load("a", fixture_xml(), shard=0)
            cluster.load("b", fixture_xml(24), shard=1)
            before = _snapshot(cluster)
            assert cluster.migrate_document("b", 0)["moved"]
            # Forge a coordinator that never observed the flip: disk
            # says b→0, this object believes b→1.
            cluster.manifest.placement["b"] = 1

            cluster.restart_shard(1)

            disk = ShardingManifest.load(cluster.root)
            assert cluster.manifest.placement == disk.placement
            assert cluster.manifest.version == disk.version
            assert _snapshot(cluster) == before
        finally:
            cluster.stop()


SOAK_SECONDS = float(os.environ.get("REPRO_STRESS_SECONDS", "0"))


@pytest.mark.skipif(SOAK_SECONDS <= 0,
                    reason="set REPRO_STRESS_SECONDS to run the "
                           "migration soak")
def test_migration_soak(tmp_path):
    """REPRO_STRESS_SECONDS of migrations racing readers and a writer;
    every read bit-identical to the frozen corpus, every update either
    acked-and-visible or cleanly rejected as ``doc_moved``."""
    cluster = make_cluster(tmp_path, shards=3)
    failures: list[str] = []
    stop = threading.Event()
    try:
        cluster.load("mover", fixture_xml(), shard=0)
        cluster.load("anchor", fixture_xml(24), shard=1)
        structure = cluster.query_pres("//p")

        def reader():
            while not stop.is_set():
                try:
                    if cluster.query_pres("//p") != structure:
                        failures.append("reader diverged")
                        return
                except ShardError as exc:
                    failures.append(f"reader failed: {exc}")
                    return

        def writer():
            i = 0
            while not stop.is_set():
                try:
                    row = cluster.query("//age/text()",
                                        document="mover")[0]
                    cluster.update_text("mover", row[2], str(i % 50))
                except DocumentMovedError:
                    continue  # transient, by contract
                except ShardError as exc:
                    failures.append(f"writer failed: {exc}")
                    return
                i += 1

        threads = [threading.Thread(target=reader) for _ in range(2)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + SOAK_SECONDS
        where = 0
        moves = 0
        while time.monotonic() < deadline and not failures:
            target = (where + 1) % 3
            cluster.migrate_document("mover", target)
            where = target
            moves += 1
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
        assert not failures, failures
        assert moves > 0
        _assert_owner_holds(cluster)
        assert cluster.query_pres("//p") == structure
    finally:
        stop.set()
        cluster.stop()
