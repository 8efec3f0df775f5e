"""Tests for the command-line interface."""

import pytest

from repro import cli
from repro.cli import main
from repro.shard import ShardCluster
from repro.shard.manifest import ShardingManifest

PERSON = (
    "<person>"
    "<name><first>Arthur</first><family>Dent</family></name>"
    "<age><decades>4</decades>2<years/></age>"
    "</person>"
)


@pytest.fixture()
def db(tmp_path):
    path = str(tmp_path / "db")
    assert main(["init", path, "--typed", "double", "--substring"]) == 0
    xml_file = tmp_path / "person.xml"
    xml_file.write_text(PERSON)
    assert main(["load", path, "person", str(xml_file)]) == 0
    return path


class TestInitLoad:
    def test_init_creates_manifest(self, tmp_path, capsys):
        path = str(tmp_path / "db")
        assert main(["init", path]) == 0
        assert (tmp_path / "db" / "MANIFEST.json").exists()

    def test_load_reports_nodes(self, tmp_path, capsys):
        path = str(tmp_path / "db2")
        main(["init", path])
        xml_file = tmp_path / "p.xml"
        xml_file.write_text(PERSON)
        assert main(["load", path, "person", str(xml_file)]) == 0
        assert "loaded 'person'" in capsys.readouterr().out

    def test_generate(self, tmp_path, capsys):
        path = str(tmp_path / "db")
        main(["init", path])
        assert main(["generate", path, "XMark1", "--scale", "0.02"]) == 0
        assert "generated XMark1" in capsys.readouterr().out

    def test_generate_unknown_dataset(self, tmp_path, capsys):
        path = str(tmp_path / "db")
        main(["init", path])
        assert main(["generate", path, "Nope"]) == 2

    def test_generate_then_verify(self, tmp_path, capsys):
        path = str(tmp_path / "db")
        main(["init", path])
        assert main(["generate", path, "XMark1", "--scale", "0.02"]) == 0
        assert "generated XMark1" in capsys.readouterr().out
        assert main(["verify", path]) == 0

    def test_load_second_document(self, db, tmp_path, capsys):
        xml_file = tmp_path / "p2.xml"
        xml_file.write_text(PERSON)
        assert main(["load", db, "person2", str(xml_file)]) == 0
        assert "loaded 'person2'" in capsys.readouterr().out


class TestQueryLookup:
    def test_query(self, db, capsys):
        assert main(["query", db, "//person[.//age = 42]", "--explain"]) == 0
        out = capsys.readouterr().out
        assert "index(double)" in out
        assert "1 hit(s)" in out

    def test_query_no_index(self, db, capsys):
        assert main(["query", db, "//first", "--no-index"]) == 0
        assert "hit(s)" in capsys.readouterr().out

    def test_query_over_connect_prints_tuple_rows(self, db, capsys):
        from repro.database import Database
        from repro.server import ServerThread

        text = "//age/text()"
        opened = Database(db)
        opened.load("person2", PERSON)
        rows = opened.query_rows(text)
        thread = ServerThread(opened)
        host, port = thread.start()
        try:  # the server's drain closes the database
            capsys.readouterr()
            assert main(["query", text, "--connect", f"{host}:{port}"]) == 0
        finally:
            thread.stop()
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"{len(rows)} hit(s)"
        assert lines[1:] == [f"  [{doc}] pre {pre} (nid {nid})"
                             for doc, pre, nid in rows]
        assert [doc for doc, _pre, _nid in rows] == ["person", "person2"]

    def test_lookup_string(self, db, capsys):
        assert main(["lookup", db, "--string", "ArthurDent"]) == 0
        assert "1 hit(s)" in capsys.readouterr().out

    def test_lookup_range(self, db, capsys):
        assert main(["lookup", db, "--range", "40", "45"]) == 0
        out = capsys.readouterr().out
        assert "hit(s)" in out and "<age>" in out

    def test_lookup_contains(self, db, capsys):
        assert main(["lookup", db, "--contains", "rthu"]) == 0
        assert "1 hit(s)" in capsys.readouterr().out

    def test_lookup_without_selector(self, db, capsys):
        assert main(["lookup", db]) == 2

    def test_stats(self, db, capsys):
        assert main(["stats", db]) == 0
        out = capsys.readouterr().out
        assert "person" in out and "index sizes" in out

    def test_stats_reports_documents_written(self, db, capsys):
        """The open's recovery refold writes the one updated document."""
        from repro.database import Database

        crashed = Database(db)
        doc = crashed.store.document("person")
        crashed.update_text(doc.nid[doc.text_id.index(1)], "Prefect")
        crashed.close(checkpoint=False)
        assert main(["stats", db]) == 0
        out = capsys.readouterr().out
        assert "persist.documents_written: 1" in out
        assert "persist.documents_reused: 0" in out


class TestUpdate:
    def test_update_persists(self, db, capsys):
        main(["lookup", db, "--string", "Dent"])
        out = capsys.readouterr().out
        nid = next(
            line.split()[1]
            for line in out.splitlines()
            if "text 'Dent'" in line
        )
        assert main(["update", db, nid, "Prefect"]) == 0
        main(["lookup", db, "--string", "ArthurPrefect"])
        assert "1 hit(s)" in capsys.readouterr().out


class TestErrors:
    def test_missing_database(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope")]) == 1
        assert "error:" in capsys.readouterr().err


class TestWalIntegration:
    def test_update_is_wal_durable(self, db, tmp_path, capsys):
        main(["lookup", db, "--string", "Dent"])
        out = capsys.readouterr().out
        nid = next(
            line.split()[1]
            for line in out.splitlines()
            if "text 'Dent'" in line
        )
        main(["update", db, nid, "Prefect"])
        capsys.readouterr()
        # The next open recovers the update from the WAL.
        main(["lookup", db, "--string", "ArthurPrefect"])
        out = capsys.readouterr().out
        assert "recovered 1 update(s)" in out
        assert "1 hit(s)" in out

    def test_checkpoint_truncates_wal(self, db, capsys):
        main(["lookup", db, "--string", "Dent"])
        out = capsys.readouterr().out
        nid = next(
            line.split()[1]
            for line in out.splitlines()
            if "text 'Dent'" in line
        )
        main(["update", db, nid, "Prefect"])
        assert main(["checkpoint", db]) == 0
        capsys.readouterr()
        main(["lookup", db, "--string", "ArthurPrefect"])
        out = capsys.readouterr().out
        assert "recovered" not in out
        assert "1 hit(s)" in out

    def test_lookup_regex_via_cli(self, db, capsys):
        assert main(["lookup", db, "--regex", "Art.ur"]) == 0
        assert "1 hit(s)" in capsys.readouterr().out


class TestVerify:
    def test_clean_database_verifies(self, db, capsys):
        assert main(["verify", db]) == 0
        assert "verification: OK" in capsys.readouterr().out


class TestShardCommands:
    """``shard-init``, ``load``, ``rebalance``, ``migrate`` and
    ``resize`` on a cluster directory, with workers as in-process
    threads rather than child processes."""

    @pytest.fixture()
    def cluster_root(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(
            cli, "_open_cluster",
            lambda path: ShardCluster(path, transport="thread",
                                      checkpoint_every=0).start())
        root = str(tmp_path / "cluster")
        assert main(["shard-init", root, "--shards", "2"]) == 0
        assert "initialised 2-shard cluster" in capsys.readouterr().out
        # Three documents that hash to shard 0, so the placement is
        # lopsided until a rebalance.
        hashed = ShardingManifest(2)
        names = [name for name in (f"doc{i}" for i in range(64))
                 if hashed.shard_of(name) == 0][:3]
        for name in names:
            xml_file = tmp_path / f"{name}.xml"
            xml_file.write_text(f"<r>{PERSON * 4}</r>")
            assert main(["load", root, name, str(xml_file)]) == 0
            assert f"loaded {name!r} onto shard 0" in \
                capsys.readouterr().out
        return root

    @staticmethod
    def _placement(root):
        return ShardingManifest.load(root).placement

    def test_rebalance_dry_run_prints_plan_only(self, cluster_root, capsys):
        before = self._placement(cluster_root)
        assert main(["rebalance", cluster_root, "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "would move" in out and "-> shard 1" in out
        assert self._placement(cluster_root) == before

    def test_rebalance_applies_plan(self, cluster_root, capsys):
        assert main(["rebalance", cluster_root]) == 0
        assert "moved" in capsys.readouterr().out
        assert set(self._placement(cluster_root).values()) == {0, 1}

    def test_migrate_moves_one_document(self, cluster_root, capsys):
        name = sorted(self._placement(cluster_root))[0]
        assert main(["migrate", cluster_root, name, "1"]) == 0
        assert f"moved {name!r}: shard 0 -> 1" in capsys.readouterr().out
        assert self._placement(cluster_root)[name] == 1
        assert main(["migrate", cluster_root, name, "1"]) == 0
        assert "already on shard 1" in capsys.readouterr().out

    def test_migrate_has_no_method_option(self, cluster_root, capsys):
        name = sorted(self._placement(cluster_root))[0]
        with pytest.raises(SystemExit) as exc:
            main(["migrate", cluster_root, name, "1", "--method", "direct"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --method" in capsys.readouterr().err

    def test_resize_grows_and_shrinks(self, cluster_root, capsys):
        assert main(["resize", cluster_root, "3"]) == 0
        out = capsys.readouterr().out
        assert "cluster now has 3 shard(s)" in out
        assert "moved" in out
        assert main(["resize", cluster_root, "1"]) == 0
        out = capsys.readouterr().out
        assert "cluster now has 1 shard(s)" in out
        assert set(self._placement(cluster_root).values()) == {0}
        assert main(["query", cluster_root, "//person"]) == 0
        assert "12 hit(s)" in capsys.readouterr().out
