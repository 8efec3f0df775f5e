"""Replication meets elasticity: migration churns followers honestly.

A document migration is a bulk load on the destination shard and a
bulk unload on the source — both invisible to the WAL frame stream by
design, so each bumps the shard's ``bulk_stamp`` and any follower
tailing that shard must notice on its next poll and fall back to a
full snapshot resync.  A follower that kept applying frames over a
silently changed corpus would diverge forever; these tests pin the
resync down on both ends of a live migration.
"""

from repro.repl import Follower
from repro.shard import ShardCluster

from ..concurrent.harness import fixture_xml


def _make_cluster(tmp_path):
    return ShardCluster(
        str(tmp_path / "cluster"), shards=2, transport="thread",
        checkpoint_every=0,
    ).start()


def _tail(tmp_path, cluster, shard: int, name: str) -> Follower:
    follower = Follower(str(tmp_path / name), cluster.addresses()[shard])
    follower.sync()
    return follower


def _corpus(engine, document: str):
    return sorted(
        (pre for doc, pre, _nid in engine.query_rows("//p")
         if doc == document),
    )


def test_source_follower_resyncs_after_migration_away(tmp_path):
    cluster = _make_cluster(tmp_path)
    follower = None
    try:
        cluster.load("mover", fixture_xml(), shard=0)
        cluster.load("anchor", fixture_xml(24), shard=0)
        follower = _tail(tmp_path, cluster, 0, "src-follower")
        assert _corpus(follower.engine, "mover")
        resyncs = follower.resyncs

        # A frame-visible update replays without any resync...
        row = cluster.query("//age/text()", document="mover")[0]
        cluster.update_text("mover", row[2], "4242")
        while follower.poll_once():
            pass
        assert follower.resyncs == resyncs
        assert follower.engine.query("//p[.//age = 4242]")

        # ...but migrating the tailed document away is a bulk unload:
        # the next poll must resync, not keep replaying frames.
        assert cluster.migrate_document("mover", 1)["moved"]
        follower.poll_once()
        assert follower.resyncs == resyncs + 1
        assert not _corpus(follower.engine, "mover")
        assert _corpus(follower.engine, "anchor")
        assert follower.engine.verify().ok
    finally:
        if follower is not None:
            follower.close()
        cluster.stop()


def test_destination_follower_resyncs_after_migration_in(tmp_path):
    cluster = _make_cluster(tmp_path)
    follower = None
    try:
        cluster.load("mover", fixture_xml(), shard=0)
        cluster.load("anchor", fixture_xml(24), shard=1)
        expected = [pre for _doc, pre in
                    cluster.query_pres("//p", document="mover")]
        follower = _tail(tmp_path, cluster, 1, "dst-follower")
        resyncs = follower.resyncs
        assert not _corpus(follower.engine, "mover")

        # The import on the destination is a bulk load: resync, after
        # which the follower serves the migrated document too.
        assert cluster.migrate_document("mover", 1)["moved"]
        follower.poll_once()
        assert follower.resyncs == resyncs + 1
        assert _corpus(follower.engine, "mover") == expected
        assert follower.engine.verify().ok

        # And the follower keeps tailing the new owner's updates.
        row = cluster.query("//age/text()", document="mover")[0]
        cluster.update_text("mover", row[2], "8888")
        while follower.poll_once():
            pass
        assert follower.engine.query("//p[.//age = 8888]")
    finally:
        if follower is not None:
            follower.close()
        cluster.stop()
