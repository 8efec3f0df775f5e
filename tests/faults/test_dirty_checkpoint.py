"""Crash at every ``persist.*`` point of a checkpoint that writes one
document and reuses another's files.

The clean document's files belong to an older epoch and are named
again by the new manifest; the dirty one is written under the new
epoch.  Wherever the power cut lands, reopening must yield the oracle
state (the WAL still holds the update, or the committed snapshot
already folded it), and the clean document's files must survive every
garbage-collection pass.
"""

import os

from repro.core import IndexManager
from repro.database import Database
from repro.storage.faults import (
    CrashPlan,
    FaultInjector,
    InjectedCrash,
    injected,
)
from repro.storage.persist import read_manifest
from repro.xmldb import TEXT

from .harness import TYPED, signature

CLEAN = "<note><to>Tove</to><n>7</n></note>"
DIRTY = "<person><name>Arthur</name><age>42</age></person>"

#: Every persistence point a one-document checkpoint crosses.
POINTS = {
    "persist.file.write",
    "persist.file.before_rename",
    "persist.file.renamed",
    "persist.files_committed",
    "persist.before_manifest",
    "persist.manifest.write",
    "persist.manifest.before_rename",
    "persist.manifest.renamed",
    "persist.manifest_committed",
    "persist.gc_done",
}


def _age_nid(target) -> int:
    doc = target.store.document("dirty")
    return next(doc.nid[p] for p in range(len(doc))
                if doc.kind[p] == TEXT and doc.text_of(p) == "42")


def _apply(target) -> None:
    target.load("clean", CLEAN)
    target.load("dirty", DIRTY)
    target.update_text(_age_nid(target), "43")


def _oracle() -> dict:
    manager = IndexManager(typed=TYPED)
    _apply(manager)
    return signature(manager)


def _prepared(path: str) -> Database:
    db = Database(path, typed=TYPED, checkpoint_every=0)
    _apply(db)
    return db


def _data_files(path: str) -> list[str]:
    return sorted(f for f in os.listdir(path)
                  if f.endswith((".doc", ".sidx", ".tidx")))


def _plans(tmp_path) -> list[CrashPlan]:
    db = _prepared(str(tmp_path / "recording"))
    recorder = FaultInjector()
    with injected(recorder):
        db.checkpoint()
    db.close(checkpoint=False)
    hits = {point: count for point, count in recorder.hits.items()
            if point.startswith("persist.")}
    assert set(hits) == POINTS
    # One document, three files (.doc, .sidx, .double.tidx).
    assert hits["persist.file.write"] == 3
    return [
        CrashPlan(point, occurrence,
                  keep_bytes=7 if point.endswith(".write") else None)
        for point, count in sorted(hits.items())
        for occurrence in range(1, count + 1)
    ]


def test_crash_at_every_persist_point_keeps_reused_files(tmp_path):
    oracle = _oracle()
    plans = _plans(tmp_path)
    for serial, plan in enumerate(plans):
        path = str(tmp_path / f"crash-{serial}")
        db = _prepared(path)
        clean_stem = read_manifest(path)["documents"]["clean"]
        with injected(FaultInjector(plan)):
            try:
                db.checkpoint()
            except InjectedCrash:
                pass
            else:
                raise AssertionError(f"{plan} never fired")
        del db  # power cut

        recovered = Database(path, typed=TYPED, checkpoint_every=0)
        context = f"crash at {plan}"
        assert signature(recovered.manager) == oracle, context
        assert recovered.verify().ok, context
        recovered.close()  # one more commit, so GC has run

        manifest = read_manifest(path)
        assert manifest["documents"]["clean"] == clean_stem, context
        referenced = set(manifest["documents"].values())
        assert _data_files(path) == sorted(
            f"{stem}{suffix}" for stem in referenced
            for suffix in (".doc", ".sidx", ".double.tidx")
        ), context
        reopened = Database(path, typed=TYPED, checkpoint_every=0)
        assert signature(reopened.manager) == oracle, context
        reopened.close(checkpoint=False)
