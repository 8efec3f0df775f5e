"""Regression tests for review-found concurrency hazards.

Each test pins down one bug from the concurrent-serving review:

* last-reader-exit pruning reclaiming a mid-flight writer's overlay
  entries (snapshot-isolation violation);
* the prune bound ignoring the published epoch as an implicit pin;
* writes issued from inside a read view deadlocking on the
  writer-lock/latch cycle instead of failing fast;
* ``explain`` running un-pinned under the concurrent path.
"""

import threading

import pytest

from repro.database import Database
from repro.txn import TransactionManager

from .harness import classified_text_nids, fixture_xml


def _open(tmp_path, **kwargs) -> Database:
    kwargs.setdefault("typed", ("double",))
    kwargs.setdefault("checkpoint_every", 0)
    kwargs.setdefault("concurrent", True)
    return Database(str(tmp_path / "db"), **kwargs)


def _text_slot(db, nid):
    doc, pre = db.store.node(nid)
    return doc, doc.text_id[pre]


class TestOverlayPruning:
    def test_prune_bound_treats_published_epoch_as_pin(self, tmp_path):
        """Entries above the published epoch survive a no-reader prune."""
        db = _open(tmp_path)
        doc = db.load("people", fixture_xml())
        (nid, *_), _ = classified_text_nids(doc)
        doc, slot = _text_slot(db, nid)
        controller = db.manager.concurrency
        published = controller.published().epoch
        overlay = doc.text_overlay
        overlay.record(slot, published, "at-published")
        overlay.record(slot, published + 1, "in-flight")
        controller.prune_overlays()
        # The committed-epoch entry is reclaimable, the in-flight one
        # (stamped published+1 by a writer that has not published) not.
        assert overlay.versions == {slot: [(published + 1, "in-flight")]}
        overlay.versions.clear()
        db.close()

    def test_last_reader_exit_spares_inflight_writer_entries(self, tmp_path):
        """A reader leaving mid-update must not reclaim the update's
        before-values: readers never prune (only ``publish`` does, and
        its bound excludes them regardless)."""
        db = _open(tmp_path)
        doc = db.load("people", fixture_xml())
        (nid, *_), _ = classified_text_nids(doc)
        doc, slot = _text_slot(db, nid)
        controller = db.manager.concurrency
        published = controller.published().epoch
        recorded = threading.Event()
        release = threading.Event()

        def writer():
            # A text update frozen between overlay record and publish.
            with controller.write_lock:
                doc.text_overlay.record(slot, published + 1, "before")
                recorded.set()
                assert release.wait(30)

        t = threading.Thread(target=writer)
        t.start()
        assert recorded.wait(30)
        with db.read_view():
            pass  # the last reader out prunes nothing
        assert doc.text_overlay.versions.get(slot) == [(published + 1, "before")]
        release.set()
        t.join(timeout=30)
        doc.text_overlay.versions.clear()
        db.close()


class TestWriteInsideViewFailsFast:
    def test_logged_updates_raise_instead_of_deadlocking(self, tmp_path):
        db = _open(tmp_path)
        doc = db.load("people", fixture_xml())
        (nid, *_), _ = classified_text_nids(doc)
        with db.read_view():
            with pytest.raises(RuntimeError, match="read view"):
                db.update_text(nid, "99")
            with pytest.raises(RuntimeError, match="read view"):
                db.delete_subtree(nid)
            with pytest.raises(RuntimeError, match="read view"):
                db.insert_xml(doc.nid[0], "<p><age>3</age></p>")
            with pytest.raises(RuntimeError, match="read view"):
                db.checkpoint()
        # Outside the view the same calls work.
        db.update_text(nid, "99")
        db.checkpoint()
        assert db.verify().ok
        db.close()

    def test_txn_commit_raises_inside_view_and_commits_after(self, tmp_path):
        db = _open(tmp_path)
        doc = db.load("people", fixture_xml())
        (nid, *_), _ = classified_text_nids(doc)
        txns = TransactionManager(db.manager)
        txn = txns.begin()
        txn.update_text(nid, "41")
        with db.read_view():
            with pytest.raises(RuntimeError, match="read view"):
                txn.commit()
        # The failed attempt did not consume the transaction.
        assert txn.status == "active"
        txn.commit()
        assert txn.status == "committed"
        _doc, pre = db.store.node(nid)
        assert _doc.text_of(pre) == "41"
        db.close()


class TestExplainPinning:
    def test_explain_auto_pins_a_read_view(self, tmp_path):
        db = _open(tmp_path)
        db.load("people", fixture_xml())

        def pins() -> int:
            return db.metrics()["counters"].get("concurrency.epoch_pins", 0)

        before = pins()
        db.explain("//p[.//age = 7]", execute=True)
        assert pins() == before + 1
        # An explicit view is reused, not double-pinned.
        inside = pins()
        with db.read_view():
            db.explain("//p[.//age = 7]")
        assert pins() == inside + 1  # the view itself, nothing more
        db.close()
