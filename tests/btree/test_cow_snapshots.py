"""Regression tests: cursors vs. concurrent structural changes.

The original tree linked leaves into a forward chain and iterated along
it.  A leaf split *moves* the upper half of a leaf's keys into a new
sibling, so a cursor positioned in the lower half mid-iteration could
skip those keys (it was past them in the old leaf) or, after a
redistribution, see them twice.  The tree is now copy-on-write: every
mutation clones the root-to-leaf path and publishes a new root, and
every cursor runs over the root captured when it was created.  These
tests pin that contract down — first the single-threaded interleaving
that used to corrupt scans, then true multi-threaded hammering.
"""

import random
import threading

from repro.btree.bplus import BPlusTree, TreeSnapshot


class TestInterleavedMutation:
    """Deterministic interleavings of one cursor and one writer."""

    def test_scan_survives_splits_behind_the_cursor(self):
        tree = BPlusTree(order=4)
        for i in range(0, 100, 2):
            tree.insert(i, i)
        before = [k for k in range(0, 100, 2)]
        it = tree.items()
        seen = []
        for step, (key, _value) in enumerate(it):
            seen.append(key)
            # Odd keys land in leaves the cursor has passed, inside the
            # one it is on, and ahead of it — forcing splits everywhere.
            tree.insert(2 * step + 1, None)
        assert seen == before, "cursor skipped or double-yielded keys"

    def test_scan_survives_deletes_ahead_of_the_cursor(self):
        tree = BPlusTree(order=4)
        for i in range(60):
            tree.insert(i, i)
        seen = []
        for key, _value in tree.items():
            seen.append(key)
            tree.delete(59 - len(seen) % 60)
        assert seen == list(range(60))

    def test_range_cursor_pins_its_snapshot(self):
        tree = BPlusTree(order=4)
        for i in range(200):
            tree.insert(i, i)
        cursor = tree.range(50, 150)
        for key in range(60, 140):
            tree.delete(key)
        assert [k for k, _ in cursor] == list(range(50, 151))

    def test_reversed_cursor_pins_its_snapshot(self):
        tree = BPlusTree(order=4)
        for i in range(50):
            tree.insert(i, i)
        cursor = tree.items_reversed()
        tree.bulk_load([(i, None) for i in range(5)])
        assert [k for k, _ in cursor] == list(range(49, -1, -1))

    def test_bulk_load_does_not_disturb_cursor(self):
        tree = BPlusTree(order=8)
        tree.bulk_load([(i, i) for i in range(300)])
        cursor = tree.items()
        tree.bulk_load([(i, -i) for i in range(10)])
        assert [k for k, _ in cursor] == list(range(300))
        assert [k for k, _ in tree.items()] == list(range(10))


class TestExplicitSnapshot:
    def test_snapshot_is_frozen(self):
        tree = BPlusTree(order=4)
        for i in range(100):
            tree.insert(i, str(i))
        snap = tree.snapshot()
        assert isinstance(snap, TreeSnapshot)
        for i in range(100, 200):
            tree.insert(i, str(i))
        for i in range(0, 100, 2):
            tree.delete(i)
        assert len(snap) == 100
        assert [k for k, _ in snap.items()] == list(range(100))
        assert snap.get(42) == "42"
        assert 43 in snap and 150 not in snap
        assert [k for k, _ in snap.range(10, 20)] == list(range(10, 21))
        assert next(snap.items_reversed())[0] == 99
        assert len(tree) == 150

    def test_snapshots_are_independent_versions(self):
        tree = BPlusTree(order=4)
        versions = []
        for i in range(50):
            tree.insert(i, i)
            versions.append(tree.snapshot())
        for count, snap in enumerate(versions, start=1):
            assert [k for k, _ in snap.items()] == list(range(count))

    def test_overwrite_is_also_copy_on_write(self):
        tree = BPlusTree(order=4)
        for i in range(20):
            tree.insert(i, "old")
        snap = tree.snapshot()
        for i in range(20):
            tree.insert(i, "new")
        assert all(v == "old" for _, v in snap.items())
        assert all(v == "new" for _, v in tree.items())


class TestThreadedScans:
    """Readers iterate while a writer mutates — every scan must come
    out sorted, duplicate-free, and equal to some published version."""

    def test_concurrent_scans_see_consistent_versions(self):
        tree = BPlusTree(order=4)
        for i in range(0, 400, 4):
            tree.insert(i, i)
        stop = threading.Event()
        failures = []

        def reader(seed):
            rng = random.Random(seed)
            while not stop.is_set():
                if rng.random() < 0.5:
                    keys = [k for k, _ in tree.items()]
                else:
                    keys = [k for k, _ in tree.range(40, 360)]
                if keys != sorted(set(keys)):
                    failures.append(keys)
                    return

        threads = [
            threading.Thread(target=reader, args=(seed,), daemon=True)
            for seed in range(3)
        ]
        for t in threads:
            t.start()
        rng = random.Random(1234)
        for _ in range(3000):
            key = rng.randrange(400)
            if rng.random() < 0.5:
                tree.insert(key, key)
            else:
                tree.delete(key)
        stop.set()
        for t in threads:
            t.join(timeout=30)
        assert not failures, f"inconsistent scan: {failures[0][:20]}..."
        tree.check_invariants()

    def test_snapshot_triple_is_atomic_under_writes(self):
        """len(snapshot) must equal the snapshot's actual entry count.

        The (root, size, height) triple is published as one tuple;
        before that fix a snapshot taken off the writer lock could pair
        the old root with the already-bumped size/height, making
        len(snap) disagree with the pinned contents (the statistics
        builders divide by it)."""
        tree = BPlusTree(order=4)
        for i in range(0, 200, 2):
            tree.insert(i, i)
        done = threading.Event()
        failures = []

        def reader():
            while not done.is_set():
                snap = tree.snapshot()
                count = sum(1 for _ in snap.items())
                if count != len(snap):
                    failures.append((len(snap), count))
                    return

        threads = [threading.Thread(target=reader, daemon=True)
                   for _ in range(2)]
        for t in threads:
            t.start()
        rng = random.Random(4321)
        for _ in range(4000):
            key = rng.randrange(200)
            if rng.random() < 0.5:
                tree.insert(key, key)
            else:
                tree.delete(key)
        done.set()
        for t in threads:
            t.join(timeout=30)
        assert not failures, (
            f"snapshot tore: len()={failures[0][0]} but {failures[0][1]} items"
        )
        tree.check_invariants()
