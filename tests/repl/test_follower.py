"""Follower basics: snapshot restore, frame tailing, differential
equivalence with the primary, and serving through a FollowerServer."""

import pytest

from repro.client import Client
from repro.repl import FollowerServer
from repro.repl.follower import ReplicationError
from repro.storage import read_manifest

from ..concurrent.harness import QUERY_MAKERS, oracle
from .conftest import wait_until

PROBES = [
    "//p[.//age = 3]",
    '//p[.//name = "n5"]',
    "//p[.//age >= 12]",
]


def _caught_up(follower, primary) -> bool:
    return all(
        sorted(follower.engine.query_rows(probe))
        == sorted(primary.db.query_rows(probe))
        for probe in PROBES
    )


class TestSync:
    def test_sync_restores_committed_snapshot(self, primary, make_follower):
        follower = make_follower()
        assert follower.resyncs == 1
        for probe in PROBES:
            assert sorted(follower.engine.query_rows(probe)) \
                == sorted(primary.db.query_rows(probe))
        assert follower.engine.verify().ok

    def test_uncheckpointed_tail_ships_as_frames(self, primary,
                                                 make_follower):
        """An update after the last checkpoint is NOT in the snapshot —
        it must arrive via the frame stream, not the restore."""
        primary.db.update_text(primary.age_nids[0], "4242")
        follower = make_follower()
        assert follower.engine.query("//p[.//age = 4242]") == []
        assert follower.poll_once() >= 1
        assert len(follower.engine.query("//p[.//age = 4242]")) == 1

    def test_sync_from_stems_of_several_epochs(self, primary, make_follower):
        """A checkpoint rewrites only changed documents, so the
        committed manifest names files written by different epochs."""
        primary.db.load("extra", "<extra><v>123321</v></extra>")
        primary.db.update_text(primary.age_nids[0], "4242")
        primary.db.checkpoint()  # rewrites "people", keeps "extra"
        stems = read_manifest(primary.db.path)["documents"]
        epochs = {stem.rpartition("@")[2] for stem in stems.values()}
        assert len(epochs) == 2
        follower = make_follower()
        for probe in PROBES + ["//p[.//age = 4242]", "//v[. = 123321]"]:
            assert sorted(follower.engine.query_rows(probe)) \
                == sorted(primary.db.query_rows(probe))
        assert len(follower.engine.query("//p[.//age = 4242]")) == 1
        assert follower.engine.verify().ok

    def test_sync_requires_running_server(self, tmp_path, primary):
        from repro.repl import Follower

        primary.stop()
        follower = Follower(str(tmp_path / "orphan"), primary.addr)
        with pytest.raises((ConnectionError, OSError)):
            follower.sync()


class TestTailing:
    def test_tailing_converges(self, primary, make_follower):
        import random

        follower = make_follower(start=True)
        rng = random.Random(7)
        for _ in range(40):
            if rng.random() < 0.7:
                primary.db.update_text(
                    rng.choice(primary.age_nids), str(rng.randrange(25)))
            else:
                primary.db.update_text(
                    rng.choice(primary.name_nids), f"n{rng.randrange(12)}")
        wait_until(lambda: _caught_up(follower, primary),
                   message="follower convergence")
        assert follower.applied_records >= 40
        # The follower's own engine agrees with the naive full-scan
        # oracle on its own replica of the document.
        rng = random.Random(11)
        for _ in range(10):
            text = rng.choice(QUERY_MAKERS)(rng)
            doc = follower.engine.store.document("people")
            assert sorted(follower.engine.query(text)) == oracle(doc, text)
        assert follower.engine.verify().ok

    def test_checkpoint_truncation_resets_cursor(self, primary,
                                                 make_follower):
        follower = make_follower()
        primary.db.update_text(primary.age_nids[0], "777")
        assert follower.poll_once() == 1
        primary.db.checkpoint()  # truncates the primary WAL
        # Cursor now sits exactly at the truncation mark: the poll
        # fast-forwards ("reset") without a snapshot transfer.
        resyncs = follower.resyncs
        follower.poll_once()
        assert follower.resyncs == resyncs
        primary.db.update_text(primary.age_nids[1], "888")
        wait_until(lambda: follower.poll_once() or
                   follower.engine.query("//p[.//age = 888]"),
                   message="post-checkpoint frame")
        assert len(follower.engine.query("//p[.//age = 888]")) == 1

    def test_bulk_load_forces_resync(self, primary, make_follower):
        follower = make_follower()
        resyncs = follower.resyncs
        primary.db.load("extra", "<extra><v>123321</v></extra>")
        follower.poll_once()
        assert follower.resyncs == resyncs + 1
        assert len(follower.engine.query("//v[. = 123321]")) == 1


class TestFollowerServer:
    def test_reads_local_writes_proxied(self, primary, make_follower):
        follower = make_follower(start=True)
        server = FollowerServer(follower)
        host, port = server.start()
        try:
            with Client(host, port) as client:
                client.handshake(("replication", "as_of"))
                # A write against the follower lands on the primary...
                client.update_text(primary.age_nids[0], "31337")
                assert len(primary.db.query("//p[.//age = 31337]")) == 1
                # ...and replication makes it readable here too.
                wait_until(
                    lambda: client.query("//p[.//age = 31337]"),
                    message="proxied write to replicate back",
                )
        finally:
            server.stop()

    def test_unstarted_follower_cannot_serve(self, tmp_path, primary):
        from repro.repl import Follower

        follower = Follower(str(tmp_path / "cold"), primary.addr)
        with pytest.raises(ReplicationError, match="no engine"):
            FollowerServer(follower).start()

    def test_promoted_server_runs_writes_locally(self, primary,
                                                 make_follower):
        follower = make_follower(start=True)
        primary.db.update_text(primary.age_nids[0], "555")
        wait_until(lambda: follower.engine.query("//p[.//age = 555]"),
                   message="pre-promotion replication")
        server = FollowerServer(follower)
        host, port = server.start()
        try:
            primary.stop()
            follower.promote()
            with Client(host, port) as client:
                client.update_text(primary.age_nids[1], "666")
                assert len(client.query("//p[.//age = 666]")) == 1
            # The write never went near the (dead) primary.
            assert len(follower.engine.query("//p[.//age = 666]")) == 1
        finally:
            server.stop()
