"""Coordinator behavior over in-process (thread-transport) workers."""

import pytest

from repro.database import Database
from repro.shard import ShardCluster, ShardError
from repro.shard.manifest import ShardingManifest

from ..concurrent.harness import classified_text_nids, fixture_xml
from .conftest import make_cluster


def _local_nids(xml: str, shard: int = 0):
    """nids the fixture doc gets when loaded first into shard ``shard``
    (shredding is deterministic and each shard mints from its own
    range, so these are the shard-local nids)."""
    import tempfile

    from repro.shard.engine import NID_RANGE_BITS

    base = shard << NID_RANGE_BITS
    with tempfile.TemporaryDirectory() as tmp:
        with Database(tmp + "/probe") as db:
            ages, names = classified_text_nids(db.load("probe", xml))
    return [n + base for n in ages], [n + base for n in names]


class TestPlacementAndRouting:
    def test_load_places_and_saves_manifest(self, tmp_path, cluster2):
        cluster2.load("people", fixture_xml(), shard=1)
        reloaded = ShardingManifest.load(cluster2.root)
        assert reloaded.placement == {"people": 1}
        assert reloaded.doc_order == ["people"]

    def test_update_routed_to_owner(self, cluster2):
        xml = fixture_xml()
        ages, _names = _local_nids(xml, shard=1)
        cluster2.load("people", xml, shard=1)
        cluster2.update_text("people", ages[0], "1234")
        rows = cluster2.query("//p[.//age = 1234]")
        assert len(rows) == 1
        assert rows[0][0] == "people"

    def test_update_unknown_document_rejected(self, cluster2):
        with pytest.raises(ShardError, match="unknown document"):
            cluster2.update_text("nope", 1, "x")

    def test_unload_releases_placement(self, cluster2):
        cluster2.load("people", fixture_xml(), shard=0)
        cluster2.unload("people")
        assert cluster2.query("//p") == []
        # The name may now be re-placed anywhere.
        cluster2.load("people", fixture_xml(), shard=1)
        assert cluster2.query("//p")

    def test_reopen_existing_cluster(self, tmp_path):
        cluster = make_cluster(tmp_path, shards=2)
        try:
            cluster.load("people", fixture_xml(), shard=1)
            before = cluster.query_pres("//p[.//age = 7]")
        finally:
            cluster.stop()
        reopened = ShardCluster(str(tmp_path / "cluster"),
                                transport="thread").start()
        try:
            assert reopened.manifest.shards == 2
            assert reopened.query_pres("//p[.//age = 7]") == before
        finally:
            reopened.stop()

    def test_conflicting_shard_count_rejected(self, tmp_path):
        cluster = make_cluster(tmp_path, shards=2)
        cluster.stop()
        with pytest.raises(ShardError, match="cannot reopen"):
            ShardCluster(str(tmp_path / "cluster"), shards=3)


class TestScatterGather:
    def test_global_order_matches_single_engine(self, tmp_path, cluster2):
        # Interleave placements so the merge actually has to interleave.
        docs = [("d0", 0), ("d1", 1), ("d2", 0), ("d3", 1)]
        with Database(str(tmp_path / "oracle")) as oracle:
            for name, shard in docs:
                xml = fixture_xml(persons=6)
                cluster2.load(name, xml, shard=shard)
                oracle.load(name, xml)
            expected = [(d, p) for d, p, _n in oracle.query_rows("//p")]
        assert cluster2.query_pres("//p") == expected

    def test_scatter_runs_one_plan_per_shard(self, cluster2):
        """A documents-scoped scatter over several documents per shard
        runs one plan over each shard's store view, not one per
        listed document."""
        for name, shard in [("d0", 0), ("d1", 1), ("d2", 0), ("d3", 1),
                            ("d4", 0)]:
            cluster2.load(name, fixture_xml(persons=6), shard=shard)

        def executed():
            return {
                shard: snap["counters"].get("query.executed", 0)
                for shard, snap in cluster2.metrics()["shards"].items()
            }

        before = executed()
        rows = cluster2.query("//p[.//age = 3]")
        after = executed()
        assert {doc for doc, _pre, _nid in rows} == {
            "d0", "d1", "d2", "d3", "d4"}
        assert {s: after[s] - before[s] for s in after} == {0: 1, 1: 1}

    def test_document_scoped_query_hits_one_shard(self, cluster2):
        cluster2.load("a", fixture_xml(persons=3), shard=0)
        cluster2.load("b", fixture_xml(persons=3), shard=1)
        rows = cluster2.query("//p", document="b")
        assert rows and all(doc == "b" for doc, _p, _n in rows)

    def test_empty_cluster_queries_empty(self, cluster2):
        assert cluster2.query("//p") == []

    def test_explain_wraps_shard_plans(self, cluster2):
        cluster2.load("a", fixture_xml(), shard=0)
        cluster2.load("b", fixture_xml(), shard=1)
        explained = cluster2.explain("//p[.//age = 7]")
        assert "ScatterGather[2 shard(s)]" in explained["summary"]
        assert "RemotePlan[shard=0" in explained["summary"]
        assert explained["tree"]["op"] == "ScatterGather"
        assert set(explained["shards"]) == {0, 1}


class TestClusterViews:
    def test_view_pins_epoch_vector(self, cluster2):
        cluster2.load("people", fixture_xml(), shard=0)
        with cluster2.read_view() as view:
            assert set(view.epochs) == {0, 1}

    def test_view_isolates_from_later_updates(self, cluster2):
        xml = fixture_xml()
        ages, _ = _local_nids(xml)
        cluster2.load("people", xml, shard=0)
        before = cluster2.query_pres("//p[.//age = 7]")
        assert before
        with cluster2.read_view() as view:
            cluster2.update_text("people", ages[7], "5555")
            # Unpinned read sees the update...
            assert cluster2.query_pres("//p[.//age = 5555]")
            # ...the pinned cross-shard view does not.
            assert cluster2.query_pres("//p[.//age = 7]",
                                       view=view) == before
            assert cluster2.query_pres("//p[.//age = 5555]",
                                       view=view) == []


    def test_pin_vector_failure_releases_partial_pins(self, cluster2):
        """Regression: a mid-loop open_view failure must not leak the
        pins already opened on earlier shards — a leaked session pin
        wedges that shard's overlay pruning for the process lifetime."""
        cluster2.load("people", fixture_xml(), shard=0)
        controller = cluster2._workers[0].engine.manager.concurrency
        assert not controller._pins
        # Kill shard 1 after shard 0 is pinned: the pin loop walks
        # shards in order, so shard 0's view opens, then shard 1 raises.
        cluster2._workers[1].stop()
        with pytest.raises(ShardError):
            with cluster2.read_view():
                pass  # pragma: no cover - pinning must fail
        assert not controller._pins, "shard 0 session pin leaked"

    def test_pin_vector_instability_releases_pins(self, cluster2):
        """The retry path must also drop each attempt's pins (it did
        pre-refactor; keep it honest)."""
        xml = fixture_xml()
        cluster2.load("people", xml, shard=0)
        controller = cluster2._workers[0].engine.manager.concurrency
        ages, _names = _local_nids(xml)
        real_routed = cluster2._routed

        def racing_routed(shard, fn):
            result = real_routed(shard, fn)
            if isinstance(result, dict) and "view" in result:
                # An update lands right after every pin: no attempt can
                # ever verify a stable vector.
                real_routed(0, lambda c: c.update_text(ages[0], "99"))
            return result

        cluster2._routed = racing_routed
        try:
            with pytest.raises(ShardError, match="no consistent"):
                with cluster2.read_view(attempts=2):
                    pass  # pragma: no cover - pinning must fail
        finally:
            cluster2._routed = real_routed
        assert not controller._pins


class TestMaintenance:
    def test_checkpoint_all_shards(self, cluster2):
        cluster2.load("people", fixture_xml(), shard=0)
        epochs = cluster2.checkpoint()
        assert set(epochs) == {0, 1}
        assert all(isinstance(e, int) for e in epochs.values())

    def test_metrics_aggregate_sums_counters(self, cluster2):
        cluster2.load("a", fixture_xml(), shard=0)
        cluster2.load("b", fixture_xml(), shard=1)
        cluster2.query("//p[.//age = 7]")
        snapshot = cluster2.metrics()
        assert set(snapshot["shards"]) == {0, 1}
        total = sum(
            shard["counters"].get("query.executed", 0)
            for shard in snapshot["shards"].values()
        )
        assert snapshot["aggregate"]["counters"]["query.executed"] == total
        assert total >= 2

    def test_addresses_lists_every_worker(self, cluster2):
        addresses = cluster2.addresses()
        assert set(addresses) == {0, 1}
        assert all(port > 0 for _host, port in addresses.values())
