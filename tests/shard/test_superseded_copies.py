"""The coordinator alone decides which copy of a migrating document
answers.

Every read plan registers the manifest version it was snapshotted at,
in the same critical section as the snapshot; a copy that a flip or an
unload supersedes stays on its shard until no registered plan older
than the superseding version is left.  These cases hold one query
between its plan snapshot and its scatter, so the race is
deterministic: the source shard must still hold the copy the held plan
names, and drop it once the plan ends.
"""

import threading
from contextlib import ExitStack, contextmanager

from repro.shard.manifest import ShardingManifest

from ..concurrent.harness import fixture_xml


class _HoldAfterPlanning:
    """Stands in for the cluster's route lock.  The first time the
    thread named ``thread_name`` leaves it — the end of that query's
    plan snapshot — the thread is parked until :attr:`go` is set, with
    the lock released, so the test can flip or unload in between."""

    def __init__(self, lock, thread_name: str):
        self.lock = lock
        self.thread_name = thread_name
        self.planned = threading.Event()
        self.go = threading.Event()

    def __enter__(self):
        return self.lock.__enter__()

    def __exit__(self, *exc):
        self.lock.__exit__(*exc)
        if (threading.current_thread().name == self.thread_name
                and not self.planned.is_set()):
            self.planned.set()
            assert self.go.wait(60), "held query was never released"


class _HeldQuery:
    rows = None
    error = None


@contextmanager
def _held_query(cluster, xpath: str):
    """Run ``cluster.query(xpath)`` on a thread held right after its
    plan snapshot; the scatter runs when the block exits."""
    held = _HeldQuery()

    def run():
        try:
            held.rows = cluster.query(xpath)
        except Exception as exc:  # reported by the test's assertions
            held.error = exc

    thread = threading.Thread(target=run, name="held-query")
    hold = _HoldAfterPlanning(cluster._route_lock, thread.name)
    cluster._route_lock = hold
    thread.start()
    try:
        assert hold.planned.wait(60), "query never planned"
        yield held
    finally:
        hold.go.set()
        thread.join(60)
        cluster._route_lock = hold.lock
    assert not thread.is_alive()


def _holds(cluster, shard: int) -> list[str]:
    return cluster._routed(shard, lambda c: c.hello())["documents"]


def _load_pair(cluster):
    cluster.load("mover", fixture_xml(), shard=0)
    cluster.load("anchor", fixture_xml(24), shard=1)
    return cluster.query("//p")


def test_query_planned_before_a_flip_answers_from_the_source(cluster2):
    before = _load_pair(cluster2)
    movers = sum(row[0] == "mover" for row in before)
    assert movers
    with _held_query(cluster2, "//p") as held:
        assert cluster2.migrate_document("mover", 1)["moved"]
        # The held plan names shard 0's copy: it outlives the flip.
        assert "mover" in _holds(cluster2, 0)
        assert "mover" in _holds(cluster2, 1)
    assert held.error is None, held.error
    assert held.rows == before
    assert sum(row[0] == "mover" for row in held.rows) == movers
    # The plan ended, so nothing names the source copy any more.
    assert "mover" not in _holds(cluster2, 0)
    assert cluster2.query("//p") == before


def test_view_opened_after_a_flip_does_not_hold_the_source(cluster2):
    before = _load_pair(cluster2)
    older = ExitStack()
    older_view = older.enter_context(cluster2.read_view())
    try:
        assert cluster2.migrate_document("mover", 1)["moved"]
        assert "mover" in _holds(cluster2, 0)
        assert cluster2.query("//p", view=older_view) == before
        with cluster2.read_view() as newer:
            older.close()
            # Only the older view named shard 0's copy.
            assert "mover" not in _holds(cluster2, 0)
            assert cluster2.query("//p", view=newer) == before
    finally:
        older.close()
    assert cluster2.query("//p") == before


def test_unload_racing_a_query_keeps_the_copy_until_the_plan_ends(cluster2):
    before = _load_pair(cluster2)
    with _held_query(cluster2, "//p") as held:
        cluster2.unload("mover")
        assert ShardingManifest.load(cluster2.root).placement == {
            "anchor": 1}
        assert "mover" in _holds(cluster2, 0)
    assert held.error is None, held.error
    assert held.rows == before
    assert "mover" not in _holds(cluster2, 0)
    assert cluster2.query("//p") == [
        row for row in before if row[0] != "mover"]


def test_bounce_back_waits_for_the_query_that_names_the_old_copy(cluster2):
    """Migrating a document back onto a shard that still holds its
    superseded copy forces that copy out first, but only after the
    un-pinned plans older than it have ended."""
    before = _load_pair(cluster2)
    with _held_query(cluster2, "//p") as held:
        assert cluster2.migrate_document("mover", 1)["moved"]
        bounce = threading.Thread(
            target=cluster2.migrate_document, args=("mover", 0))
        bounce.start()
        bounce.join(0.5)
        assert bounce.is_alive(), "bounce-back did not wait for the query"
        assert "mover" in _holds(cluster2, 0)
    bounce.join(60)
    assert not bounce.is_alive()
    assert held.error is None, held.error
    assert held.rows == before
    assert _holds(cluster2, 0) == ["mover"]
    assert _holds(cluster2, 1) == ["anchor"]
    assert cluster2.query("//p") == before


def test_bounce_back_does_not_wait_for_an_open_view(cluster2):
    """A view's plan does not hold a forced unload back: the bounce
    completes under the open view, as a reload would."""
    before = _load_pair(cluster2)
    with cluster2.read_view():
        assert cluster2.migrate_document("mover", 1)["moved"]
        assert "mover" in _holds(cluster2, 0)
        assert cluster2.migrate_document("mover", 0)["moved"]
        assert cluster2.query("//p") == before
        # The view is older than the second flip too, so shard 1's
        # copy waits for it.
        assert "mover" in _holds(cluster2, 1)
    assert _holds(cluster2, 0) == ["mover"]
    assert _holds(cluster2, 1) == ["anchor"]
    assert cluster2.query("//p") == before
