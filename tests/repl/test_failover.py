"""Failover: kill the primary process mid-commit, promote a follower.

The primary runs as a real OS process (``repro.shard.worker``) armed
to ``os._exit`` inside a WAL append, leaving a torn frame on disk —
the same shape as a power cut mid group commit.  Replication is
asynchronous, so the contract under test is:

* the promoted follower serves the *shipped prefix* of acked updates
  (bounded staleness, never a torn or reordered state), and
* the dead primary's directory still recovers the *full* acked set
  via ordinary WAL replay — nothing acknowledged is ever lost.
"""

import os
import re
import subprocess
import sys
import time

import pytest

from repro.client import Client, ClientError
from repro.database import Database
from repro.repl import Follower
from repro.shard.worker import KillSwitch

from ..concurrent.harness import classified_text_nids, fixture_xml
from .conftest import wait_until


class WorkerPrimary:
    """A primary served by a ``repro.shard.worker`` subprocess."""

    def __init__(self, path: str, kill_at: str | None = None,
                 keep_bytes: int | None = None):
        argv = [
            sys.executable, "-m", "repro.shard.worker",
            "--path", path, "--checkpoint-every", "0",
        ]
        if kill_at is not None:
            argv += ["--kill-at", kill_at]
        if keep_bytes is not None:
            argv += ["--kill-keep-bytes", str(keep_bytes)]
        env = dict(os.environ)
        env.setdefault("PYTHONPATH", "src")
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, env=env,
        )
        line = self.proc.stdout.readline()
        match = re.search(r" on ([\d.]+):(\d+) ", line)
        assert match, f"unexpected worker output {line!r}"
        self.addr = (match.group(1), int(match.group(2)))

    def wait_dead(self, timeout: float = 15.0) -> int:
        return self.proc.wait(timeout=timeout)

    def terminate(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover
                self.proc.kill()


@pytest.fixture
def worker_paths(tmp_path):
    return str(tmp_path / "primary"), str(tmp_path / "follower")


def test_promoted_follower_serves_acked_prefix(tmp_path, worker_paths):
    primary_path, follower_path = worker_paths
    # The 6th WAL append dies mid-write with a 7-byte torn prefix:
    # updates 1..5 are acked, update 6 is doomed and never acked.
    primary = WorkerPrimary(primary_path, kill_at="wal.append:6",
                            keep_bytes=7)
    follower = None
    try:
        xml = fixture_xml()
        with Database(str(tmp_path / "probe")) as probe:
            ages, _names = classified_text_nids(probe.load("probe", xml))
        client = Client(*primary.addr)
        client.call("load", name="people", xml=xml)

        follower = Follower(follower_path, primary.addr,
                            poll_interval=0.002)
        follower.start()

        acked = []
        for i in range(1, 6):
            client.update_text(ages[0], str(1000 + i))
            acked.append(1000 + i)
        # Let replication fully drain before the crash, so the shipped
        # prefix is deterministic (the whole acked set).
        wait_until(
            lambda: follower.engine.query(f"//p[.//age = {acked[-1]}]"),
            message="follower to catch up pre-crash",
        )

        with pytest.raises((ClientError, ConnectionError, OSError)):
            client.update_text(ages[0], "6666")  # never acked
        assert primary.wait_dead() == KillSwitch.EXIT_CODE
        client.close()

        # Promote: the follower keeps serving, at the acked prefix.
        engine = follower.promote()
        assert len(engine.query(f"//p[.//age = {acked[-1]}]")) == 1
        assert engine.query("//p[.//age = 6666]") == []
        assert engine.verify().ok

        # The promoted engine accepts writes of its own.
        engine.update_text(ages[0], "7777")
        assert len(engine.query("//p[.//age = 7777]")) == 1

        # And the dead primary's directory recovers every acked update
        # (torn tail discarded) — asynchronous replication lost nothing
        # that was acknowledged.
        with Database(primary_path) as revived:
            assert revived.recovery.torn_tail
            assert len(revived.query(f"//p[.//age = {acked[-1]}]")) == 1
            assert revived.query("//p[.//age = 6666]") == []
            assert revived.verify().ok
    finally:
        if follower is not None:
            follower.close()
        primary.terminate()


def test_follower_survives_primary_restart(worker_paths, tmp_path):
    """A bounced primary (same directory, new process) resumes feeding
    the same follower: the tail loop reconnects and the epoch/offset
    protocol forces a clean resync instead of serving garbage."""
    primary_path, follower_path = worker_paths
    primary = WorkerPrimary(primary_path)
    follower = None
    try:
        xml = fixture_xml()
        with Database(str(tmp_path / "probe")) as probe:
            ages, _names = classified_text_nids(probe.load("probe", xml))
        with Client(*primary.addr) as client:
            client.call("load", name="people", xml=xml)
            client.update_text(ages[0], "111")

        follower = Follower(follower_path, primary.addr,
                            poll_interval=0.002)
        follower.start()
        wait_until(lambda: follower.engine.query("//p[.//age = 111]"),
                   message="initial replication")

        primary.terminate()
        time.sleep(0.1)  # let the tail loop notice the outage
        revived = WorkerPrimary(primary_path)
        try:
            # The follower's primary address is fixed; rebind the new
            # process's port into it (test-only plumbing — production
            # deployments put a stable address in front).
            follower.primary_addr = revived.addr
            with Client(*revived.addr) as client:
                client.update_text(ages[0], "222")
            wait_until(
                lambda: follower.engine.query("//p[.//age = 222]"),
                message="replication after primary restart",
            )
            assert follower.engine.query("//p[.//age = 111]") == []
            assert follower.engine.verify().ok
        finally:
            revived.terminate()
    finally:
        if follower is not None:
            follower.close()
        primary.terminate()
