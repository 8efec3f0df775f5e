"""A checkpoint writes only the documents that changed.

Every ``Store`` mutation gives the document a fresh store-wide change
stamp; the engine remembers the stamp each committed file holds and
hands ``save_manager`` the stems it may keep.  The state machine
interleaves every way a document can change with checkpoints, and after
each checkpoint opens a *copy* of the directory with an empty WAL: the
committed snapshot alone must reproduce the live engine.  A reused file
whose document did change shows up as a diverging copy.
"""

import os
import shutil
import tempfile

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
)

from repro.core import IndexManager
from repro.database import Database
from repro.storage import read_manifest, save_manager
from repro.storage.persist import document_bytes
from repro.xmldb import ATTR, ELEM, TEXT

#: ``x/y`` and ``x_y`` sanitise to the same file stem.
NAMES = ["a", "b", "x/y", "x_y"]
VALUES = ["42", "4.2", "towel", "", "7", "2009-03-24"]


def _xml(name: str, value: str) -> str:
    return (f'<root k="{value}"><item>{value}</item>'
            f"<item>w{name}</item><n>1<m>2</m></n></root>")


def snapshot(engine) -> dict:
    """The logical state a reopened copy must reproduce."""
    manager = engine.manager
    return {
        "docs": {name: doc.serialize()
                 for name, doc in manager.store.documents.items()},
        "indexes": {index.kind: list(index.entries())
                    for index in manager.indexes},
        "next_nid": manager.store._next_nid,
    }


def assert_copy_matches(engine, scratch: str) -> None:
    """Open a copy of ``engine``'s directory without its WAL and
    compare it with the live engine."""
    shutil.copytree(engine.path, scratch,
                    ignore=shutil.ignore_patterns("wal.log"))
    try:
        reopened = Database(scratch, checkpoint_every=0)
        try:
            assert reopened.recovery.clean
            assert snapshot(reopened) == snapshot(engine)
            assert reopened.verify().ok
        finally:
            reopened.close(checkpoint=False)
    finally:
        shutil.rmtree(scratch)


class DirtyCheckpointMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.root = tempfile.mkdtemp(prefix="dirty-checkpoint-")
        self.engine = Database(os.path.join(self.root, "db"),
                               typed=("double",), checkpoint_every=0)
        self.serial = 0

    def _names(self) -> list[str]:
        return list(self.engine.store.documents)

    def _nids(self, pick: int, kinds, skip_root: bool = False) -> list[int]:
        names = self._names()
        if not names:
            return []
        doc = self.engine.store.document(names[pick % len(names)])
        root = doc.root_element() if skip_root else -1
        return [doc.nid[p] for p in range(len(doc))
                if doc.kind[p] in kinds and p != root]

    def _loaded(self) -> bool:
        return bool(self.engine.store.documents)

    def _next(self) -> int:
        self.serial += 1
        return self.serial

    @rule(name=st.sampled_from(NAMES), value=st.sampled_from(VALUES))
    def load(self, name, value):
        if name not in self.engine.store.documents:
            self.engine.load(name, _xml(name, value))
            self._check_copy()

    @precondition(lambda self: self._loaded())
    @rule(pick=st.integers(0, 10**6))
    def unload(self, pick):
        names = self._names()
        if names:
            self.engine.unload(names[pick % len(names)])
            self._check_copy()

    @precondition(lambda self: self._loaded())
    @rule(pick=st.integers(0, 10**6), value=st.sampled_from(VALUES))
    def reload(self, pick, value):
        """Unload and load one name inside a checkpoint interval (the
        engine's own ``load``/``unload`` each checkpoint)."""
        names = self._names()
        if names:
            name = names[pick % len(names)]
            self.engine.manager.unload(name)
            self.engine.manager.load(name, _xml(name, f"{value}r"))

    @precondition(lambda self: self._loaded())
    @rule(pick=st.integers(0, 10**6), value=st.sampled_from(VALUES),
          at=st.integers(0, 10**6))
    def update_text(self, pick, value, at):
        nids = self._nids(pick, (TEXT, ATTR))
        if nids:
            self.engine.update_text(nids[at % len(nids)], value)

    @precondition(lambda self: self._loaded())
    @rule(pick=st.integers(0, 10**6), value=st.sampled_from(VALUES),
          at=st.integers(0, 10**6))
    def insert_xml(self, pick, value, at):
        nids = self._nids(pick, (ELEM,))
        if nids:
            tag = f"e{self._next()}"
            self.engine.insert_xml(nids[at % len(nids)],
                                   f"<{tag}>{value}</{tag}>")

    @precondition(lambda self: self._loaded())
    @rule(pick=st.integers(0, 10**6), at=st.integers(0, 10**6))
    def delete_subtree(self, pick, at):
        nids = self._nids(pick, (ELEM, TEXT), skip_root=True)
        if nids:
            self.engine.delete_subtree(nids[at % len(nids)])

    @precondition(lambda self: self._loaded())
    @rule(pick=st.integers(0, 10**6), value=st.sampled_from(VALUES),
          at=st.integers(0, 10**6))
    def insert_attribute(self, pick, value, at):
        nids = self._nids(pick, (ELEM,))
        if nids:
            self.engine.insert_attribute(nids[at % len(nids)],
                                         f"k{self._next()}", value)

    @precondition(lambda self: self._loaded())
    @rule(pick=st.integers(0, 10**6), at=st.integers(0, 10**6))
    def delete_attribute(self, pick, at):
        nids = self._nids(pick, (ATTR,))
        if nids:
            self.engine.delete_attribute(nids[at % len(nids)])

    @precondition(lambda self: self._loaded())
    @rule(pick=st.integers(0, 10**6), at=st.integers(0, 10**6))
    def rename(self, pick, at):
        nids = self._nids(pick, (ELEM,))
        if nids:
            self.engine.rename(nids[at % len(nids)], f"r{self._next()}")

    @precondition(lambda self: self._loaded())
    @rule(type_name=st.sampled_from(["integer", "date"]))
    def add_typed_index(self, type_name):
        if type_name not in self.engine.manager.typed_indexes:
            self.engine.manager.add_typed_index(type_name)

    @rule(name=st.sampled_from(NAMES), value=st.sampled_from(VALUES))
    def import_document(self, name, value):
        if name not in self.engine.store.documents:
            source = IndexManager(typed=())
            payload = document_bytes(source.load(name, _xml(name, value)))
            self.engine.import_document(name, payload)
            self._check_copy()

    @rule()
    def checkpoint(self):
        self.engine.checkpoint()
        self._check_copy()

    def _check_copy(self):
        """Called after every checkpoint, the forced ones included."""
        assert_copy_matches(self.engine, os.path.join(self.root, "copy"))

    def teardown(self):
        if hasattr(self, "engine"):
            self.engine.close(checkpoint=False)
            shutil.rmtree(self.root, ignore_errors=True)


DirtyCheckpointMachine.TestCase.settings = settings(
    max_examples=200, stateful_step_count=30, deadline=None
)
TestDirtyCheckpointStateful = DirtyCheckpointMachine.TestCase


def _counters(engine) -> dict:
    counters = engine.metrics()["counters"]
    return {kind: counters[f"persist.documents_{kind}"]
            for kind in ("written", "reused")}


def _text_nid(engine, name: str) -> int:
    doc = engine.store.document(name)
    return next(doc.nid[p] for p in range(len(doc)) if doc.kind[p] == TEXT)


class TestDocumentCounts:
    def test_loads_checkpoint_close_write_each_document_once(self, tmp_path):
        db = Database(str(tmp_path / "db"), checkpoint_every=0)
        for i in range(5):
            db.load(f"d{i}", _xml(f"d{i}", str(i)))
        db.checkpoint()
        db.close()
        # Loads reuse 0+1+2+3+4, the checkpoint and the close 5 each.
        assert _counters(db) == {"written": 5, "reused": 20}

    def test_refold_writes_only_the_updated_document(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path, checkpoint_every=0)
        for i in range(5):
            db.load(f"d{i}", _xml(f"d{i}", str(i)))
        db.update_text(_text_nid(db, "d2"), "77")
        db.update_text(_text_nid(db, "d2"), "78")
        db.close(checkpoint=False)
        reopened = Database(path, checkpoint_every=0)
        assert reopened.recovery.replayed == 2
        assert _counters(reopened) == {"written": 1, "reused": 4}
        reopened.close(checkpoint=False)

    def test_clean_documents_keep_their_files(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path, checkpoint_every=0)
        db.load("a", _xml("a", "1"))
        db.load("b", _xml("b", "2"))
        stems = read_manifest(path)["documents"]
        db.update_text(_text_nid(db, "b"), "3")
        db.checkpoint()
        after = read_manifest(path)["documents"]
        assert after["a"] == stems["a"]  # an older epoch's stem
        assert after["b"] == f"b@{db.checkpoint_epoch}"
        db.close(checkpoint=False)


class TestSaveElsewhere:
    def test_copy_saved_elsewhere_does_not_mask_a_change(self, tmp_path):
        """``save_manager`` to another directory keeps no state: the
        engine's next checkpoint still writes the changed document."""
        path = str(tmp_path / "db")
        db = Database(path, checkpoint_every=0)
        db.load("a", _xml("a", "1"))
        db.load("b", _xml("b", "2"))
        db.update_text(_text_nid(db, "a"), "changed")
        save_manager(db.manager, str(tmp_path / "elsewhere"))
        before = _counters(db)
        db.checkpoint()
        assert _counters(db)["written"] == before["written"] + 1
        assert_copy_matches(db, str(tmp_path / "copy"))
        db.close(checkpoint=False)
