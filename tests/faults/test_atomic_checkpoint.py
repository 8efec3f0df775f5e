"""Targeted crash tests for the atomic snapshot commit protocol."""

import json
import os

import pytest

from repro.core import IndexManager
from repro.database import Database
from repro.storage import save_manager
from repro.storage.faults import (
    CrashPlan,
    FaultInjector,
    InjectedCrash,
    injected,
)
from repro.storage.format import write_header
from repro.storage.persist import read_manifest
from repro.storage.wal import WalRecord, TEXT_UPDATE, encode_record
from repro.xmldb import ELEM, TEXT

PERSON = (
    "<person>"
    "<name><first>Arthur</first><family>Dent</family></name>"
    "<age>42</age>"
    "</person>"
)


def _text_nid(db, content):
    doc = db.store.document("person")
    for pre in range(len(doc)):
        if doc.kind[pre] == TEXT and doc.text_of(pre) == content:
            return doc.nid[pre]
    raise AssertionError(content)


def _elem_nid(db, name):
    doc = db.store.document("person")
    for pre in range(len(doc)):
        if doc.kind[pre] == ELEM and doc.name_of(pre) == name:
            return doc.nid[pre]
    raise AssertionError(name)


class TestDoubleReplayWindow:
    def test_crash_between_snapshot_and_truncate(self, tmp_path):
        """The historic bug: a crash after the snapshot commit but
        before the WAL truncate used to replay the old WAL over the
        *new* snapshot, duplicating the inserted subtree.  The epoch
        guard must skip those already-folded records instead."""
        path = str(tmp_path / "db")
        db = Database(path, checkpoint_every=0)
        db.load("person", PERSON)
        db.insert_xml(_elem_nid(db, "person"), "<iq>160</iq>")
        with injected(FaultInjector(CrashPlan("checkpoint.after_snapshot"))):
            with pytest.raises(InjectedCrash):
                db.checkpoint()
        del db  # power cut between snapshot commit and WAL truncate
        recovered = Database(path, checkpoint_every=0)
        assert recovered.recovered_records == 0
        assert recovered.recovery.skipped_epoch == 1
        # Exactly one <iq> — the unguarded code double-applied it.
        assert len(recovered.query("//person/iq")) == 1
        assert len(list(recovered.lookup_typed_equal("double", 160.0))) == 2
        assert recovered.verify().ok
        recovered.close()

    def test_recovery_refold_crash_does_not_double_apply(self, tmp_path):
        """Same window inside recovery itself: replayed records are
        refolded into a snapshot before the WAL is truncated."""
        path = str(tmp_path / "db")
        db = Database(path, checkpoint_every=0)
        db.load("person", PERSON)
        db.insert_xml(_elem_nid(db, "person"), "<iq>160</iq>")
        del db  # crash: WAL holds the insert
        with injected(FaultInjector(CrashPlan("recovery.refolded"))):
            with pytest.raises(InjectedCrash):
                Database(path, checkpoint_every=0)
        recovered = Database(path, checkpoint_every=0)
        assert recovered.recovered_records == 0
        assert recovered.recovery.skipped_epoch == 1
        assert len(recovered.query("//person/iq")) == 1
        assert recovered.verify().ok
        recovered.close()


class TestAtomicSnapshot:
    @pytest.mark.parametrize("point, keep", [
        ("persist.file.write", 16),
        ("persist.file.before_rename", None),
        ("persist.manifest.write", 10),
        ("persist.manifest.before_rename", None),
    ])
    def test_crash_mid_snapshot_preserves_previous_state(
        self, tmp_path, point, keep
    ):
        """A crash anywhere before the manifest rename leaves the old
        snapshot committed; the WAL still carries the update."""
        path = str(tmp_path / "db")
        db = Database(path, checkpoint_every=0)
        db.load("person", PERSON)
        db.update_text(_text_nid(db, "Dent"), "Prefect")
        with injected(FaultInjector(CrashPlan(point, keep_bytes=keep))):
            with pytest.raises(InjectedCrash):
                db.checkpoint()
        del db
        recovered = Database(path, checkpoint_every=0)
        assert recovered.recovered_records == 1  # replayed from the WAL
        assert list(recovered.lookup_string("ArthurPrefect"))
        assert recovered.verify().ok
        recovered.close()

    def test_torn_snapshot_files_never_loaded(self, tmp_path):
        """A torn data file from a crashed commit is left under a
        stale name the committed manifest never references."""
        path = str(tmp_path / "db")
        db = Database(path, checkpoint_every=0)
        db.load("person", PERSON)
        epoch_before = db.checkpoint_epoch
        # A checkpoint writes only changed documents: dirty one, so the
        # crashed commit really writes (and tears) a data file.
        db.update_text(_text_nid(db, "Dent"), "Prefect")
        with injected(FaultInjector(
            CrashPlan("persist.file.write", keep_bytes=7)
        )):
            with pytest.raises(InjectedCrash):
                db.checkpoint()
        del db
        manifest = read_manifest(path)
        assert manifest["epoch"] == epoch_before
        for stem in manifest["documents"].values():
            assert stem.endswith(f"@{epoch_before}")
        Database(path, checkpoint_every=0).close()  # loads fine

    def test_stale_epochs_garbage_collected(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path, checkpoint_every=0)
        db.load("person", PERSON)
        db.update_text(_text_nid(db, "Dent"), "Prefect")
        db.checkpoint()
        db.checkpoint()
        db.close()  # checkpoints once more
        # GC works by manifest reference: every data file on disk is
        # named by the committed manifest (whatever its stem's epoch),
        # and no unreferenced one survives.
        referenced = set(read_manifest(path)["documents"].values())
        data = [f for f in os.listdir(path)
                if f.endswith((".doc", ".sidx", ".tidx"))]
        assert sorted(data) == sorted(
            f"{stem}{suffix}" for stem in referenced
            for suffix in (".doc", ".sidx", ".double.tidx")
        )
        assert not any(f.endswith(".tmp") for f in os.listdir(path))

    def test_checkpoint_epochs_increase_monotonically(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path, checkpoint_every=0)
        db.load("person", PERSON)
        first = db.checkpoint_epoch
        db.checkpoint()
        assert db.checkpoint_epoch == first + 1
        db.close()  # close() checkpoints again
        reopened = Database(path, checkpoint_every=0)
        assert reopened.checkpoint_epoch == first + 2
        reopened.close()


class TestV1Compatibility:
    def _make_v1_database(self, path: str) -> int:
        """Write a database, then rewrite it in the version-1 layout:
        no epoch/version in the manifest, unsuffixed stems, and a
        legacy unframed WAL carrying one update."""
        manager = IndexManager(typed=("double",))
        manager.load("person", PERSON)
        save_manager(manager, path)
        doc = manager.store.document("person")
        dent = next(
            doc.nid[p] for p in range(len(doc))
            if doc.kind[p] == TEXT and doc.text_of(p) == "Dent"
        )
        with open(os.path.join(path, "MANIFEST.json")) as fh:
            manifest = json.load(fh)
        manifest.pop("version")
        manifest.pop("epoch")
        stems = {}
        for name, stem in manifest["documents"].items():
            base = stem.split("@")[0]
            for entry in list(os.listdir(path)):
                if entry == f"{stem}.doc" or entry.startswith(f"{stem}."):
                    os.rename(
                        os.path.join(path, entry),
                        os.path.join(path, base + entry[len(stem):]),
                    )
            stems[name] = base
        manifest["documents"] = stems
        with open(os.path.join(path, "MANIFEST.json"), "w") as fh:
            json.dump(manifest, fh)
        with open(os.path.join(path, "wal.log"), "wb") as fh:
            write_header(fh, version=1)
            fh.write(encode_record(WalRecord(TEXT_UPDATE, dent, text="Prefect")))
        return dent

    def test_v1_database_opens_and_upgrades(self, tmp_path):
        path = str(tmp_path / "db")
        self._make_v1_database(path)
        db = Database(path, checkpoint_every=0)
        assert db.recovery.wal_format == 1
        assert db.recovered_records == 1  # the legacy record replayed
        assert list(db.lookup_string("ArthurPrefect"))
        # The refold moved the directory to the epoch protocol ...
        assert read_manifest(path)["epoch"] == 1
        db.update_text(_text_nid(db, "Prefect"), "Dent")
        db.close(checkpoint=False)
        # ... and new WAL writes use the framed format.
        reopened = Database(path, checkpoint_every=0)
        assert reopened.recovery.wal_format == 2
        assert reopened.recovered_records == 1
        assert reopened.verify().ok
        reopened.close()
