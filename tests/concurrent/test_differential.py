"""Differential serving suite: live readers vs the full-scan oracle.

The concurrent serving path promises snapshot isolation: a query
pinned at epoch E sees exactly the state any single-threaded client
would have seen at E, no matter how many writers are publishing newer
epochs underneath it.  These tests check that promise the only way
that counts — by racing real reader and writer threads against one
:class:`~repro.database.Database` and comparing every indexed answer
with the naive oracle evaluated on the same pinned snapshot (see
``harness.py``).  A post-run :meth:`verify` guards the final state.
"""

import os
import threading

from repro.database import Database
from repro.storage import groupcommit

from .harness import (
    classified_text_nids,
    fixture_xml,
    oracle,
    run_stress,
)

SEED = int(os.environ.get("REPRO_STRESS_SEED", "96321"))


class TestDifferentialServing:
    def test_readers_never_diverge_from_oracle(self, tmp_path):
        counts = run_stress(
            str(tmp_path / "db"), seed=SEED, readers=3, writers=2, ops=120
        )
        assert counts["updates"] >= 240

    def test_divergence_free_under_group_commit_fsync(self, tmp_path,
                                                      monkeypatch):
        # Small batches + fsync: the acknowledgment path (leader
        # election, batched fsync) runs constantly under the readers.
        monkeypatch.setattr(groupcommit, "BATCH_MAX", 4)
        counts = run_stress(
            str(tmp_path / "db"),
            seed=SEED + 1,
            readers=2,
            writers=3,
            ops=40,
            sync="fsync",
        )
        assert counts["updates"] == 120

    def test_substring_answers_hold_at_the_pinned_epoch(self, tmp_path):
        # With the q-gram index configured, text writers stay on the
        # MVCC path, so readers cross-check its contains() answers at
        # their pinned epoch while text and structural writers run.
        counts = run_stress(
            str(tmp_path / "db"),
            seed=SEED + 2,
            readers=2,
            writers=2,
            ops=60,
            substring=True,
        )
        assert counts["updates"] == 120


class TestSnapshotStability:
    def test_pinned_view_is_immutable_under_writes(self, tmp_path):
        """A view opened before a write keeps answering from its epoch."""
        db = Database(
            str(tmp_path / "db"), typed=("double",), checkpoint_every=0,
            concurrent=True,
        )
        doc = db.load("people", fixture_xml())
        age_nids, _ = classified_text_nids(doc)
        text = "//p[.//age = 7]"
        with db.read_view():
            before_indexed = sorted(db.query(text))
            before_oracle = oracle(db.store.document("people"), text)

            # Another thread rewrites every age while the view is open.
            def rewrite():
                for nid in age_nids:
                    db.update_text(nid, "7")

            t = threading.Thread(target=rewrite)
            t.start()
            t.join(timeout=60)
            assert not t.is_alive()

            # Same view, same answers — from both engines.
            assert sorted(db.query(text)) == before_indexed
            assert oracle(db.store.document("people"), text) == before_oracle

        # A fresh view sees the new world (every <p> now matches).
        with db.read_view():
            after = db.query(text)
            assert sorted(after) == oracle(db.store.document("people"), text)
            assert len(after) == len(age_nids)
        assert db.verify().ok
        db.close(checkpoint=False)
