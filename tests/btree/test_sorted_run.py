"""``SortedRun``: frozen base columns plus a copy-on-write delta.

* a hypothesis state machine over every write — insert, delete,
  re-insert after a tombstone, bulk merge, ``remove_nids``, forced fold
  — and ``snapshot()``, checked after *every* step against a plain
  sorted list of tuples, for the live run and for every snapshot taken
  so far (a snapshot pinned across a fold must keep reading its own
  entries);
* the key edge cases of the three column dtypes;
* what the index laid over it does with those keys.
"""

from decimal import Decimal

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.btree import SortedRun
from repro.core import IndexManager

#: Few distinct keys and nids: duplicates of a key, re-inserts of a
#: deleted entry and tombstones over base entries all happen often.
KEYS = {
    "f8": [-1.5, -0.0, 0.0, 2.0, 2.5, 1e300, float("inf")],
    "<u4": [0, 1, 7, 7 << 20, 2**32 - 1],
    "object": [
        -(2**70), 0, 3, 2**63 + 1, 2**63 + 2,
        Decimal("0.1000000000000000000001"),
        Decimal("0.1000000000000000000002"),
    ],
}
NIDS = st.integers(0, 11)
INCLUSION = [(True, True), (True, False), (False, True), (False, False)]


def between(entries, low, high, include_low, include_high):
    """Reference range over a sorted list of tuples."""
    out = []
    for entry in entries:
        if low is not None and (entry < low or (entry == low and not include_low)):
            continue
        if high is not None and (
            entry > high or (entry == high and not include_high)
        ):
            continue
        out.append(entry)
    return out


def check_reads(reader, model):
    """``reader`` (a live run or a snapshot) holds exactly ``model``."""
    entries = sorted(model)
    assert list(reader.keys()) == entries
    assert len(reader) == len(entries)
    assert [entry for entry, _none in reader.items()] == entries
    assert [entry for entry, _none in reader.items_reversed()] == entries[::-1]
    keys, nids = reader.columns()
    assert list(zip(keys.tolist(), nids.tolist())) == entries
    assert nids.dtype == np.int64
    return entries


class RunMachine(RuleBasedStateMachine):
    dtype = "f8"

    @initialize()
    def setup(self):
        self.run = SortedRun(self.dtype, order=4)
        self.model: set[tuple] = set()
        self.pinned: list[tuple] = []  # (snapshot, its entries)

    def entries(self):
        return st.tuples(st.sampled_from(KEYS[self.dtype]), NIDS)

    # -- writes ---------------------------------------------------------

    @rule(data=st.data())
    def insert(self, data):
        entry = data.draw(self.entries())
        assert self.run.insert(entry) == (entry not in self.model)
        self.model.add(entry)

    @rule(data=st.data())
    def delete(self, data):
        entry = data.draw(self.entries())
        assert self.run.delete(entry) == (entry in self.model)
        self.model.discard(entry)

    @precondition(lambda self: len(self.run.snapshot().base_keys))
    @rule(pick=st.integers(0, 10**6))
    def reinsert_after_tombstone(self, pick):
        state = self.run.snapshot()
        at = pick % len(state.base_keys)
        entry = (state.base_keys.tolist()[at], int(state.base_nids[at]))
        if entry in self.model:
            assert self.run.delete(entry)
            assert entry not in self.run
            assert len(self.run) == len(self.model) - 1
        assert self.run.insert(entry)
        assert not self.run.insert(entry)
        self.model.add(entry)

    @rule(data=st.data())
    def merge(self, data):
        fresh = sorted(
            set(data.draw(st.lists(self.entries(), max_size=8))) - self.model
        )
        data.draw(st.randoms()).shuffle(fresh)
        self.run.merge([k for k, _n in fresh], [n for _k, n in fresh])
        self.model.update(fresh)

    @rule(data=st.data())
    def merge_rejects_a_present_entry(self, data):
        if self.model:
            key, nid = data.draw(st.sampled_from(sorted(self.model)))
            with pytest.raises(ValueError):
                self.run.merge([key], [nid])

    @rule(nids=st.lists(NIDS, max_size=4))
    def remove_nids(self, nids):
        doomed = {entry for entry in self.model if entry[1] in nids}
        assert self.run.remove_nids(nids) == len(doomed)
        self.model -= doomed

    @rule()
    def fold(self):
        self.run.fold()
        assert len(self.run.snapshot().delta) == 0

    @rule()
    def snapshot(self):
        # The oldest pin lives through the most folds; two recent ones
        # keep the per-step checks affordable.
        del self.pinned[1:-1]
        self.pinned.append((self.run.snapshot(), sorted(self.model)))

    # -- checks ---------------------------------------------------------

    @invariant()
    def live_run_matches_the_model(self):
        self.run.check_invariants()
        entries = check_reads(self.run, self.model)
        for key in KEYS[self.dtype]:
            for nid in (0, 5, 11):
                assert ((key, nid) in self.run) == ((key, nid) in self.model)
        self._check_ranges(self.run, entries)

    @invariant()
    def snapshots_keep_their_contents(self):
        for snapshot, entries in self.pinned:
            assert check_reads(snapshot, entries) == entries
            self._check_ranges(snapshot, entries)

    def _check_ranges(self, reader, entries):
        keys = KEYS[self.dtype]
        bounds = [None, (keys[1], -1), (keys[-2], 1 << 62)]
        bounds += entries[len(entries) // 2:][:1]  # a bound that is an entry
        for low in bounds:
            for high in bounds:
                for include_low, include_high in INCLUSION:
                    got = [
                        entry for entry, _none in
                        reader.range(low, high, include_low, include_high)
                    ]
                    assert got == between(
                        entries, low, high, include_low, include_high
                    )
        for low in (None, keys[1], keys[3]):
            for high in (None, keys[2], keys[-1]):
                for include_low, include_high in INCLUSION:
                    got = reader.nids_between(
                        low, high, include_low, include_high
                    )
                    assert got.dtype == np.int64
                    want = [
                        nid for key, nid in entries
                        if (low is None or key > low
                            or (include_low and key == low))
                        and (high is None or key < high
                             or (include_high and key == high))
                    ]
                    assert sorted(got.tolist()) == sorted(want)


class HashRunMachine(RunMachine):
    dtype = "<u4"


class ObjectRunMachine(RunMachine):
    dtype = "object"


_machine_settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestDoubleRun = RunMachine.TestCase
TestDoubleRun.settings = _machine_settings
TestHashRun = HashRunMachine.TestCase
TestHashRun.settings = _machine_settings
TestObjectRun = ObjectRunMachine.TestCase
TestObjectRun.settings = _machine_settings


class TestSnapshotAcrossFolds:
    def test_pinned_version_reads_its_own_entries(self):
        run = SortedRun("f8", order=4)
        run.merge([1.0, 2.0, 3.0], [10, 20, 30])
        run.delete((2.0, 20))
        run.insert((2.5, 25))
        pinned = run.snapshot()
        held = list(pinned.keys())
        assert held == [(1.0, 10), (2.5, 25), (3.0, 30)]
        run.fold()
        run.insert((0.5, 5))
        run.delete((3.0, 30))
        run.fold()
        run.remove_nids([10])
        run.merge([9.0], [90])
        assert list(run.keys()) == [(0.5, 5), (2.5, 25), (9.0, 90)]
        assert list(pinned.keys()) == held
        assert pinned.nids_between(2.0, None).tolist() == [30, 25]
        assert (3.0, 30) in pinned and (0.5, 5) not in pinned
        assert len(pinned) == 3

    def test_snapshot_is_the_published_version_not_a_copy(self):
        run = SortedRun("<u4")
        run.merge([5, 6], [1, 2])
        assert run.snapshot() is run.snapshot()
        before = run.snapshot()
        run.insert((7, 3))
        assert run.snapshot() is not before
        assert run.snapshot().base_nids is before.base_nids  # no re-materialising

    def test_scan_hands_out_a_frozen_slice(self):
        run = SortedRun("f8")
        run.merge([1.0, 2.0], [1, 2])
        nids = run.nids_between(None, None)
        with pytest.raises(ValueError):
            nids[0] = 99


class TestKeyEdgeCases:
    def test_signed_zeros_are_one_key_ordered_by_nid(self):
        run = SortedRun("f8")
        run.merge([0.0, -0.0, 0.0, -0.0], [4, 3, 2, 1])
        assert [nid for _key, nid in run.keys()] == [1, 2, 3, 4]
        assert sorted(run.nids_between(0.0, 0.0).tolist()) == [1, 2, 3, 4]
        assert sorted(run.nids_between(-0.0, -0.0).tolist()) == [1, 2, 3, 4]
        assert run.nids_between(0.0, None, include_low=False).size == 0
        # The set is keyed by value: -0.0 finds the entry stored as 0.0.
        assert (-0.0, 4) in run and not run.insert((-0.0, 4))
        assert run.delete((-0.0, 4)) and (0.0, 4) not in run
        run.fold()
        assert [nid for _key, nid in run.keys()] == [1, 2, 3]

    def test_infinity_sorts_last_and_is_reachable(self):
        run = SortedRun("f8")
        run.merge([float("inf"), 1e308, float("inf")], [2, 1, 3])
        assert list(run.keys()) == [
            (1e308, 1), (float("inf"), 2), (float("inf"), 3)
        ]
        assert run.nids_between(1e308, None, include_low=False).tolist() == [2, 3]
        assert run.nids_between(None, float("inf"), include_high=False).tolist() == [1]

    def test_duplicate_keys_keep_every_nid(self):
        run = SortedRun("<u4")
        run.merge([9] * 5 + [8], [50, 10, 40, 20, 30, 99])
        assert run.nids_between(9, 9).tolist() == [10, 20, 30, 40, 50]
        run.delete((9, 30))
        run.insert((9, 35))
        assert sorted(run.nids_between(9, 9).tolist()) == [10, 20, 35, 40, 50]

    def test_hash_keys_use_the_whole_u32_range(self):
        run = SortedRun("<u4")
        run.merge([2**32 - 1, 0, 2**31], [1, 2, 3])
        assert [key for key, _nid in run.keys()] == [0, 2**31, 2**32 - 1]
        assert run.nids_between(2**32 - 1, 2**32 - 1).tolist() == [1]
        with pytest.raises(OverflowError):  # never wrapped into range
            run.merge([2**32], [4])

    def test_object_keys_are_never_rounded(self):
        big, bigger = 2**63 + 1, 2**63 + 2
        assert float(big) == float(bigger)
        low, high = Decimal("0.1000000000000000000001"), Decimal(
            "0.1000000000000000000002"
        )
        assert float(low) == float(high)
        middle = Decimal("0.10000000000000000000015")
        run = SortedRun(object)
        run.merge([bigger, high, big, low], [1, 2, 3, 4])
        assert list(run.keys()) == [(low, 4), (high, 2), (big, 3), (bigger, 1)]
        assert run.nids_between(None, middle).tolist() == [4]
        assert run.nids_between(middle, 1).tolist() == [2]
        assert run.nids_between(big, big).tolist() == [3]
        assert run.nids_between(big, None, include_low=False).tolist() == [1]
        run.delete((high, 2))
        run.insert((middle, 5))
        run.fold()
        assert list(run.keys()) == [
            (low, 4), (middle, 5), (big, 3), (bigger, 1)
        ]
        assert all(type(key) is not float for key, _nid in run.keys())


class TestIndexOverTheRun:
    """The same edge cases through the typed indices' own lookups."""

    @pytest.fixture()
    def manager(self):
        m = IndexManager(typed=("double", "integer", "decimal"))
        m.load(
            "doc",
            "<r><d>-0.0</d><d>0.0</d><d>1e400</d><d>7</d><d>7</d>"
            f"<i>{2**63 + 1}</i><i>{2**63 + 2}</i>"
            "<c>0.1000000000000000000001</c>"
            "<c>0.1000000000000000000002</c></r>",
        )
        return m

    def _texts(self, manager, name):
        doc = manager.store.document("doc")
        return [
            doc.string_value(pre) for pre in range(len(doc))
            if doc.kind[pre] == 1 and doc.name_of(pre) == name
        ]

    def test_double_column(self, manager):
        index = manager.typed_index("double")
        assert index.tree.snapshot().base_keys.dtype == np.float64
        zeros = list(index.lookup_equal(0.0))
        assert len(zeros) == 4 and zeros == sorted(zeros)  # text + element, twice
        assert list(index.lookup_equal(-0.0)) == zeros
        assert len(list(index.lookup_equal(float("inf")))) == 2
        assert len(index.range_nids(7.0, 7.0)) == 4
        top = index.top_values(1)
        assert top[0][0] == float("inf")

    def test_integer_column_orders_beyond_int64(self, manager):
        index = manager.typed_index("integer")
        assert index.tree.snapshot().base_keys.dtype == object
        big, bigger = 2**63 + 1, 2**63 + 2
        assert len(list(index.lookup_equal(big))) == 2
        assert len(list(index.lookup_equal(bigger))) == 2
        assert [v for v, _n in index.lookup_range(big, None, include_low=False)] \
            == [bigger, bigger]
        assert len(index.range_nids(None, big)) == len(index.tree) - 2

    def test_decimal_column_separates_beyond_f8(self, manager):
        index = manager.typed_index("decimal")
        low = Decimal("0.1000000000000000000001")
        middle = Decimal("0.10000000000000000000015")
        below = index.range_nids(low, middle)
        above = index.range_nids(middle, Decimal("0.2"))
        assert len(below) == 2 and len(above) == 2
        assert not set(below.tolist()) & set(above.tolist())
        manager.check_consistency()

    def test_update_moves_an_entry_through_the_delta(self, manager):
        index = manager.typed_index("double")
        base = index.tree.snapshot().base_nids
        doc = manager.store.document("doc")
        text = next(
            doc.nid[pre] for pre in range(len(doc))
            if doc.kind[pre] == 2 and doc.text_of(pre) == "1e400"
        )
        manager.update_text(text, "-3")
        assert index.tree.snapshot().base_nids is base  # not re-materialised
        assert len(index.tree.snapshot().delta) == 4  # two moved entries
        assert list(index.lookup_equal(float("inf"))) == []
        assert len(index.range_nids(None, 0.0, include_high=False)) == 2
        index.tree.fold()
        assert len(index.range_nids(None, 0.0, include_high=False)) == 2
        manager.check_consistency()
