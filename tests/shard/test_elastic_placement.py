"""Placement changes: the rebalance plan, resize in both directions,
and the single migration protocol's footprint on disk.

``greedy_balance`` must plan each document at most once, at its final
shard; ``resize`` must leave every document on a live owner that
holds it, with scatter results unchanged, and must report its moves
as ``(document, src, dst)`` plus ``loads_after`` whichever way it
goes.  Everything runs over the thread transport.
"""

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.shard import ShardCluster, greedy_balance
from repro.storage import faults

from ..concurrent.harness import fixture_xml
from .conftest import make_cluster

PROBES = ("//p", "//p[.//age = 7]", '//p[.//name = "n3"]',
          "//p[.//age >= 12]")

#: (name, persons, home shard) — weights that made the old leveling
#: move d0 twice when growing 2 → 4 shards.
DOCS = [("d0", 6, 0), ("d1", 12, 0), ("d2", 18, 1), ("d3", 24, 0),
        ("d4", 30, 0)]


def _spread(assignment, weights, shards):
    loads = [0] * shards
    for name, shard in assignment.items():
        loads[shard] += weights[name]
    return max(loads) - min(loads)


class TestGreedyBalance:
    def test_document_that_comes_back_is_not_moved(self):
        # Leveling moves d2 to shard 1, d1 to shard 1, then d2 back to
        # shard 0; the plan is d1's one move.
        assignment = {"d0": 1, "d1": 0, "d2": 0, "d3": 0}
        weights = {"d0": 9, "d1": 17, "d2": 7, "d3": 20}
        assert greedy_balance(assignment, weights, 2) == [("d1", 1)]

    def test_document_moved_twice_is_planned_once_at_its_final_shard(self):
        # Leveling onto two new shards moves d0 to shard 2, later to 3.
        assignment = {"d0": 0, "d1": 0, "d2": 1, "d3": 0, "d4": 0}
        weights = {"d0": 798, "d1": 1528, "d2": 2260, "d3": 2994,
                   "d4": 3721}
        assert greedy_balance(assignment, weights, 4) == [
            ("d0", 3), ("d1", 3), ("d3", 2)]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data(), shards=st.integers(1, 5),
           weights=st.lists(st.integers(0, 100), min_size=0, max_size=8))
    def test_plan_is_each_document_once_and_never_widens(
            self, data, shards, weights):
        names = [f"d{i}" for i in range(len(weights))]
        assignment = {
            name: data.draw(st.integers(0, shards - 1)) for name in names}
        weight_of = dict(zip(names, weights))
        moves = greedy_balance(assignment, weight_of, shards)
        moved = [name for name, _dst in moves]
        assert len(moved) == len(set(moved))
        assert all(assignment[name] != dst for name, dst in moves)
        assert all(0 <= dst < shards for _name, dst in moves)
        after = dict(assignment, **dict(moves))
        assert _spread(after, weight_of, shards) \
            <= _spread(assignment, weight_of, shards)


def _holdings(cluster):
    return {
        shard: set(cluster._routed(shard, lambda c: c.hello())["documents"])
        for shard in sorted(cluster._workers)
    }


def _assert_sound(cluster, shards, before):
    assert cluster.manifest.shards == shards
    assert sorted(cluster._workers) == list(range(shards))
    held = _holdings(cluster)
    for name, owner in cluster.manifest.placement.items():
        assert name in held[owner], (name, owner, held)
    assert sum(len(docs) for docs in held.values()) == len(DOCS)
    assert [cluster.query_pres(probe) for probe in PROBES] == before


def _assert_shape(result, shards, start):
    assert result["shards"] == shards
    assert sorted(result["loads_after"]) == list(range(shards))
    names = [move[0] for move in result["moves"]]
    assert len(names) == len(set(names))
    for name, src, dst in result["moves"]:
        assert src == start[name] and src != dst and 0 <= dst < shards


class TestResize:
    def _loaded(self, tmp_path):
        cluster = make_cluster(tmp_path, shards=2)
        for name, persons, shard in DOCS:
            cluster.load(name, fixture_xml(persons), shard=shard)
        return cluster

    def test_grow_then_shrink_keeps_results(self, tmp_path):
        cluster = self._loaded(tmp_path)
        try:
            before = [cluster.query_pres(probe) for probe in PROBES]
            start = dict(cluster.manifest.placement)
            grown = cluster.resize(4)
            _assert_shape(grown, 4, start)
            assert {dst for _n, _s, dst in grown["moves"]} & {2, 3}
            _assert_sound(cluster, 4, before)

            start = dict(cluster.manifest.placement)
            shrunk = cluster.resize(1)
            _assert_shape(shrunk, 1, start)
            assert shrunk["loads_after"][0] == sum(
                grown["loads_after"].values())
            assert set(cluster.manifest.placement.values()) == {0}
            _assert_sound(cluster, 1, before)
            placement = dict(cluster.manifest.placement)
        finally:
            cluster.stop()

        reopened = ShardCluster(cluster.root, transport="thread",
                                checkpoint_every=0).start()
        try:
            assert reopened.manifest.placement == placement
            _assert_sound(reopened, 1, before)
        finally:
            reopened.stop()

    def test_grow_migrates_each_document_at_most_once(self, tmp_path,
                                                       monkeypatch):
        cluster = self._loaded(tmp_path)
        migrated = []
        migrate = cluster.migrate_document

        def counting(name, dst, **kwargs):
            migrated.append(name)
            return migrate(name, dst, **kwargs)

        monkeypatch.setattr(cluster, "migrate_document", counting)
        try:
            result = cluster.resize(4)
            assert len(migrated) == len(set(migrated))
            assert sorted(migrated) == sorted(n for n, _s, _d
                                              in result["moves"])
        finally:
            cluster.stop()


class _ListRoot(faults.FaultInjector):
    """Record the cluster root's entries at every migrate crashpoint."""

    def __init__(self, root):
        super().__init__()
        self.root = root
        self.seen = set()

    def on_crashpoint(self, point):
        super().on_crashpoint(point)
        if point.startswith("migrate."):
            self.seen.update(os.listdir(self.root))


def test_migration_leaves_no_staging_directory(cluster2):
    cluster2.load("mover", fixture_xml(), shard=0)
    cluster2.load("anchor", fixture_xml(24), shard=1)
    lister = _ListRoot(cluster2.root)
    with faults.injected(lister):
        report = cluster2.migrate_document("mover", 1)
    assert report["moved"] and set(report) >= {"bytes", "pause_s",
                                               "duration_s"}
    assert lister.seen
    entries = lister.seen | set(os.listdir(cluster2.root))
    assert not [entry for entry in entries
                if entry.startswith(".staging-")]
