"""Sharding manifest: placement, ordering, persistence."""

import gc
import json
import os

import pytest

from repro.database import Database
from repro.shard.manifest import SHARDING_FILE, ShardingManifest
from repro.storage import persist


class TestPlacement:
    def test_hash_placement_is_deterministic(self):
        a = ShardingManifest(4)
        b = ShardingManifest(4)
        for name in ("XMark1", "DBLP", "PSD", "Wiki"):
            assert a.shard_of(name) == b.shard_of(name)
            assert 0 <= a.shard_of(name) < 4

    def test_explicit_placement_wins_over_hash(self):
        manifest = ShardingManifest(4)
        hashed = manifest.shard_of("doc")
        explicit = (hashed + 1) % 4
        assert manifest.place("doc", explicit) == explicit
        assert manifest.shard_of("doc") == explicit

    def test_place_records_global_load_order(self):
        manifest = ShardingManifest(2)
        for name in ("c", "a", "b"):
            manifest.place(name)
        assert manifest.doc_order == ["c", "a", "b"]
        assert manifest.global_index("a") == 1

    def test_documents_on_preserves_order(self):
        manifest = ShardingManifest(2)
        manifest.place("one", 0)
        manifest.place("two", 1)
        manifest.place("three", 0)
        assert manifest.documents_on(0) == ["one", "three"]
        assert manifest.documents_on(1) == ["two"]

    def test_replace_on_other_shard_rejected(self):
        manifest = ShardingManifest(2)
        manifest.place("doc", 0)
        with pytest.raises(ValueError, match="already placed"):
            manifest.place("doc", 1)
        # Re-placing on the same shard is idempotent.
        assert manifest.place("doc", 0) == 0

    def test_out_of_range_shard_rejected(self):
        manifest = ShardingManifest(2)
        with pytest.raises(ValueError, match="out of range"):
            manifest.place("doc", 2)

    def test_unplace(self):
        manifest = ShardingManifest(2)
        manifest.place("doc", 1)
        assert manifest.unplace("doc") == 1
        assert "doc" not in manifest.placement
        assert manifest.doc_order == []


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        manifest = ShardingManifest(
            3, config={"string": True, "typed": ["double"]})
        manifest.place("b", 2)
        manifest.place("a")
        manifest.save(str(tmp_path))
        loaded = ShardingManifest.load(str(tmp_path))
        assert loaded.shards == 3
        assert loaded.config == {"string": True, "typed": ["double"]}
        assert loaded.placement == manifest.placement
        assert loaded.doc_order == ["b", "a"]

    def test_exists(self, tmp_path):
        assert not ShardingManifest.exists(str(tmp_path))
        ShardingManifest(1).save(str(tmp_path))
        assert ShardingManifest.exists(str(tmp_path))

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        ShardingManifest(2).save(str(tmp_path))
        assert os.listdir(str(tmp_path)) == [SHARDING_FILE]

    def test_unknown_format_rejected(self, tmp_path):
        ShardingManifest(1).save(str(tmp_path))
        path = tmp_path / SHARDING_FILE
        data = json.loads(path.read_text())
        data["format"] = 99
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="format"):
            ShardingManifest.load(str(tmp_path))

    def test_inconsistent_doc_order_rejected(self, tmp_path):
        manifest = ShardingManifest(1)
        manifest.place("doc")
        manifest.save(str(tmp_path))
        path = tmp_path / SHARDING_FILE
        data = json.loads(path.read_text())
        data["doc_order"] = []
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="doc_order"):
            ShardingManifest.load(str(tmp_path))

    def test_shard_dir_naming(self, tmp_path):
        manifest = ShardingManifest(2)
        assert manifest.shard_dir(str(tmp_path), 1).endswith("shard-001")


class TestDurableWrite:
    def test_save_fsyncs_the_cluster_root(self, tmp_path, monkeypatch):
        """The rename that publishes ``SHARDING.json`` is durable only
        once the directory holding it is fsynced."""
        root = str(tmp_path)
        opened: dict[int, str] = {}
        synced: list[str] = []
        real_open, real_fsync = os.open, os.fsync

        def spy_open(path, flags, *args, **kwargs):
            fd = real_open(path, flags, *args, **kwargs)
            opened[fd] = os.fspath(path)
            return fd

        def spy_fsync(fd):
            synced.append(opened.get(fd, "file"))
            return real_fsync(fd)

        monkeypatch.setattr(os, "open", spy_open)
        monkeypatch.setattr(os, "fsync", spy_fsync)
        manifest = ShardingManifest(2)
        manifest.place("doc")
        manifest.save(root)
        assert root in synced

    @pytest.mark.parametrize("which", ["sharding", "shard"])
    def test_saving_a_manifest_leaves_no_cyclic_garbage(self, tmp_path,
                                                        which):
        """Both manifests are encoded by the C JSON encoder: the
        pure-Python one (``indent=``) leaves cyclic garbage behind on
        every save."""
        if which == "sharding":
            manifest = ShardingManifest(2, config={"typed": ["double"]})
            manifest.place("doc")
            save = lambda: manifest.save(str(tmp_path))  # noqa: E731
        else:
            path = str(tmp_path / "db")
            with Database(path) as db:
                db.load("doc", "<a><b>1</b></a>")
            with open(os.path.join(path, "MANIFEST.json")) as fh:
                data = json.load(fh)
            save = lambda: persist._commit_manifest(path, data)  # noqa: E731
        gc.collect()
        gc.disable()
        try:
            save()
            assert gc.collect() == 0
        finally:
            gc.enable()
