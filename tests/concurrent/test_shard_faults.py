"""Kill one shard mid-commit; the cluster survives, the shard recovers.

The worker process is armed (via :mod:`repro.storage.faults` crash
plans, upgraded to ``os._exit`` by the worker's ``KillSwitch``) to die
at the WAL append of a chosen update — after a torn prefix of the
frame reaches the disk, exactly the shape of a power cut mid group
commit.  The coordinator must surface the stable ``shard_down`` error
for anything needing the dead shard, keep serving the live shard, and
:meth:`~repro.shard.ShardCluster.restart_shard` must bring the shard
back to the oracle state: every *acked* update visible, the unacked
doomed update gone.
"""

import time

import pytest

from repro.database import Database
from repro.shard import ShardCluster, ShardDownError, ShardError
from repro.shard.coordinator import _ProcessWorker
from repro.shard.engine import NID_RANGE_BITS
from repro.shard.worker import KillSwitch

from .harness import classified_text_nids, fixture_xml


@pytest.fixture
def cluster(tmp_path):
    cluster = ShardCluster(
        str(tmp_path / "cluster"), shards=2, transport="process",
        checkpoint_every=0,
    ).start()
    yield cluster
    cluster.stop()


def _local_nids(xml: str, tmp_path) -> list[int]:
    """Shard-local age-text nids of the fixture document (shredding is
    deterministic: the first document in any fresh engine gets these)."""
    with Database(str(tmp_path / "probe")) as db:
        return classified_text_nids(db.load("probe", xml))[0]


def _wait_dead(cluster: ShardCluster, shard: int, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while cluster.shard_alive(shard):
        if time.monotonic() > deadline:  # pragma: no cover - diagnostics
            raise AssertionError(f"shard {shard} still alive after kill")
        time.sleep(0.02)


def test_kill_one_shard_mid_commit(tmp_path, cluster):
    xml = fixture_xml()
    ages = _local_nids(xml, tmp_path)
    # Shard 1 mints from its own nid range; the probe engine (no
    # shard id) mints from zero, so offset its nids for cluster calls.
    ages1 = [nid + (1 << NID_RANGE_BITS) for nid in ages]
    cluster.load("left", xml, shard=0)
    cluster.load("right", xml, shard=1)
    cluster.update_text("right", ages1[0], "1111")  # acked pre-restart

    # Re-arm shard 1 so occurrence counting starts at a clean WAL:
    # append #1 is the next acked update, append #2 dies mid-write
    # with a 7-byte torn prefix on disk.
    cluster.arm_kill(1, "wal.append", occurrence=2, keep_bytes=7)
    cluster.restart_shard(1)
    cluster.update_text("right", ages1[1], "2222")  # acked post-restart

    with pytest.raises(ShardDownError) as excinfo:
        cluster.update_text("right", ages1[2], "9999")  # never acked
    assert excinfo.value.code == "shard_down"
    assert excinfo.value.shard == 1
    _wait_dead(cluster, 1)
    worker = cluster._workers[1]
    assert worker.proc.returncode == KillSwitch.EXIT_CODE

    # The dead shard stays down with the stable error...
    with pytest.raises(ShardDownError):
        cluster.update_text("right", ages1[3], "7777")
    with pytest.raises(ShardDownError):
        cluster.query("//p")
    # ...while the live shard keeps serving.
    rows = cluster.query("//p[.//age = 7]", document="left")
    assert rows and all(doc == "left" for doc, _pre, _nid in rows)

    # Restart → WAL recovery on the torn log: acked survives, the
    # doomed frame's prefix is discarded.
    cluster.restart_shard(1)
    assert cluster.shard_alive(1)

    # Bit-identical to an oracle engine that saw exactly the acked
    # updates.
    with Database(str(tmp_path / "oracle")) as oracle:
        oracle.load("right", xml)
        oracle.update_text(ages[0], "1111")
        oracle.update_text(ages[1], "2222")

        def expect(text):
            return [("right", pre) for _doc, pre, _nid
                    in oracle.query_rows(text)]

        for probe in ("//p[.//age = 1111]", "//p[.//age = 2222]",
                      "//p[.//age >= 0]"):
            got = cluster.query_pres(probe, document="right")
            assert got == expect(probe) and got, probe
    assert cluster.query_pres("//p[.//age = 9999]") == []

    # And the recovered shard accepts new writes.
    cluster.update_text("right", ages1[2], "3333")
    assert len(cluster.query_pres("//p[.//age = 3333]")) == 1


def test_kill_requires_process_transport(tmp_path):
    cluster = ShardCluster(str(tmp_path / "cluster"), shards=1,
                           transport="thread", checkpoint_every=0)
    cluster.arm_kill(0, "wal.append")
    from repro.shard import ShardError

    with pytest.raises(ShardError, match="process transport"):
        cluster.start()


def test_worker_that_cannot_start_is_a_shard_error(tmp_path):
    """A worker process that exits before ``serve`` prints its
    ``serving ... on HOST:PORT`` line surfaces as ``ShardError``."""
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    with pytest.raises(ShardError, match="failed to start"):
        _ProcessWorker(str(blocker), 0, sync="flush", checkpoint_every=0)
