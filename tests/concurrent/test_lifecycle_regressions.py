"""Regression tests for serving-path lifecycle/shutdown bugs.

Each test pins one bug a long-running server would trip over daily:

* ``Database.close()`` leaking the WAL file handle when the checkpoint
  raises (a poisoned group-commit log re-raising its injected crash);
* two group-commit writers crossing ``checkpoint_every`` at the same
  time both seeing ``due=True`` and running back-to-back stop-the-world
  auto-checkpoints;
* ``ReadView.__enter__`` leaking the shared latch and the pin when
  anything after ``acquire_shared()`` raises (wedging every future
  structural writer), and ``__exit__`` discarding the real exception
  triple on the way out;
* ``GroupCommitLog`` promising per-batch size metrics but recording
  only counters.
"""

import threading
from contextlib import contextmanager

import pytest

from repro.core import concurrency as concurrency_module
from repro.database import Database
from repro.storage import faults, groupcommit

from .harness import classified_text_nids, fixture_xml


def _open(tmp_path, **kwargs) -> Database:
    kwargs.setdefault("typed", ("double",))
    kwargs.setdefault("checkpoint_every", 0)
    kwargs.setdefault("concurrent", True)
    return Database(str(tmp_path / "db"), **kwargs)


class TestCloseReleasesWal:
    def test_close_releases_wal_fd_when_checkpoint_raises(self, tmp_path):
        """A poisoned group log must not leave the WAL handle open."""
        db = _open(tmp_path, group_commit=True, sync="fsync")
        doc = db.load("people", fixture_xml())
        (nid, *_), _ = classified_text_nids(doc)
        # Poison the group-commit log: the leader's write crashes, so
        # every later drain()/checkpoint() re-raises the same crash.
        plan = faults.CrashPlan("wal.append", occurrence=1)
        with faults.injected(faults.FaultInjector(crash=plan)):
            with pytest.raises(faults.InjectedCrash):
                db.update_text(nid, "0")
        assert db._group.poisoned
        with pytest.raises(faults.InjectedCrash):
            db.close(checkpoint=True)
        # The fd is released even though the checkpoint raised; a
        # server restarting after the poison must be able to reopen.
        assert db._wal._fh.closed
        db2 = Database(str(tmp_path / "db"))
        assert db2.verify().ok
        db2.close()


class TestAutoCheckpointArmsOnce:
    def test_threshold_crossing_triggers_exactly_one_checkpoint(
        self, tmp_path
    ):
        """Concurrent bumps past the threshold arm the trigger once.

        Simulates the race window deterministically: with the trigger
        un-reset until ``checkpoint()`` finishes (the pre-fix code),
        every bump past the threshold sees ``due=True`` — a second
        writer crossing simultaneously runs a second back-to-back
        stop-the-world checkpoint.  Post-fix, ``_pending`` is reset
        under the lock when the trigger arms, so follow-up bumps start
        a fresh count.
        """
        db = _open(tmp_path, checkpoint_every=2)
        calls = []
        db.checkpoint = lambda: calls.append(1)  # observe, don't reset
        db._bump_pending()
        db._bump_pending()  # crosses the threshold: arms the trigger
        db._bump_pending()  # concurrent writer: must NOT re-arm
        assert len(calls) == 1, (
            f"{len(calls)} checkpoints for one threshold crossing"
        )

    def test_two_racing_writers_one_checkpoint(self, tmp_path):
        """Two real writers crossing together: one checkpoint fires."""
        db = _open(tmp_path, checkpoint_every=2)
        checkpoints = []
        barrier = threading.Barrier(2)
        original = db.checkpoint

        def counting_checkpoint():
            checkpoints.append(1)
            original()

        db.checkpoint = counting_checkpoint
        db._pending = 1  # next bump crosses the threshold

        def bump():
            barrier.wait()
            db._bump_pending()

        threads = [threading.Thread(target=bump) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert len(checkpoints) == 1
        db.close()


class TestReadViewLifecycle:
    def test_enter_failure_releases_latch_and_pin(
        self, tmp_path, monkeypatch
    ):
        """A failing enter must not wedge future structural writers."""
        db = _open(tmp_path)
        doc = db.load("people", fixture_xml())
        controller = db.manager.concurrency

        def broken_reading_at(epoch):
            raise RuntimeError("injected reading_at failure")

        monkeypatch.setattr(
            concurrency_module, "reading_at", broken_reading_at
        )
        with pytest.raises(RuntimeError, match="injected"):
            with db.read_view():
                pass  # pragma: no cover - enter raises
        monkeypatch.undo()

        # No leaked shared hold, no leaked pin, no thread-local view.
        assert controller.latch._shared == 0
        assert not controller._pins
        assert concurrency_module.active_view() is None
        # The real proof: a structural writer still gets the exclusive
        # latch (pre-fix this deadlocks on the leaked shared hold).
        root_nid = doc.nid[doc.root_element()]
        db.insert_xml(root_nid, "<p><name>n1</name><age>1</age></p>")
        db.close()

    def test_exit_forwards_exception_to_reading_scope(
        self, tmp_path, monkeypatch
    ):
        """The MVCC reading scope sees the real exception triple."""
        db = _open(tmp_path)
        db.load("people", fixture_xml())
        seen = []

        @contextmanager
        def recording_reading_at(epoch):
            try:
                yield
            except Exception as exc:
                seen.append(exc)
                raise

        monkeypatch.setattr(
            concurrency_module, "reading_at", recording_reading_at
        )
        marker = ValueError("boom")
        with pytest.raises(ValueError):
            with db.read_view():
                raise marker
        assert seen == [marker], (
            "reading scope saw no exception: __exit__ swallowed the "
            "triple instead of forwarding it"
        )
        db.close()

    def test_exit_restores_state_after_failed_body(self, tmp_path):
        """After an exception inside the view, nothing leaks."""
        db = _open(tmp_path)
        db.load("people", fixture_xml())
        controller = db.manager.concurrency
        with pytest.raises(ValueError):
            with db.read_view():
                raise ValueError("boom")
        assert controller.latch._shared == 0
        assert not controller._pins
        assert concurrency_module.active_view() is None
        db.close()


class TestBatchSizeHistogram:
    def test_group_commit_records_batch_size_histogram(self, tmp_path,
                                                       monkeypatch):
        """Per-batch sizes are observable, not just total counters."""
        monkeypatch.setattr(groupcommit, "BATCH_MAX", 4)
        db = _open(tmp_path, group_commit=True)
        doc = db.load("people", fixture_xml())
        age_nids, _ = classified_text_nids(doc)

        def writer(slot):
            for k in range(10):
                db.update_text(age_nids[slot], str(k))

        threads = [
            threading.Thread(target=writer, args=(slot,)) for slot in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)

        snapshot = db.metrics()
        histogram = snapshot["histograms"].get("wal.group.batch_size")
        assert histogram is not None, "wal.group.batch_size not recorded"
        counters = snapshot["counters"]
        # One observation per batch; observed mass equals the record
        # counter — the histogram and the counters advance together.
        assert histogram["count"] == counters["wal.group.batches"]
        assert histogram["total"] == counters["wal.group.records"]
        assert 1 <= histogram["max"] <= 4
        db.close()
