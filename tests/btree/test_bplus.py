"""Unit and property tests for the B+tree substrate."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree import BPlusTree


class TestBasics:
    def test_empty(self):
        tree = BPlusTree(order=4)
        assert len(tree) == 0
        assert tree.get(1) is None
        assert 1 not in tree
        assert list(tree.items()) == []
        assert list(tree.range(0, 10)) == []

    def test_insert_get(self):
        tree = BPlusTree(order=4)
        assert tree.insert(5, "five")
        assert tree.get(5) == "five"
        assert 5 in tree
        assert len(tree) == 1

    def test_insert_overwrites(self):
        tree = BPlusTree(order=4)
        tree.insert(5, "old")
        assert not tree.insert(5, "new")
        assert tree.get(5) == "new"
        assert len(tree) == 1

    def test_order_too_small(self):
        with pytest.raises(ValueError):
            BPlusTree(order=2)

    def test_many_inserts_sorted_iteration(self):
        tree = BPlusTree(order=4)
        data = list(range(200))
        random.Random(7).shuffle(data)
        for key in data:
            tree.insert(key, key * 2)
        assert [k for k, _ in tree.items()] == list(range(200))
        assert tree.height > 1
        tree.check_invariants()

    def test_tuple_keys(self):
        tree = BPlusTree(order=8)
        tree.insert((42, 1))
        tree.insert((42, 2))
        tree.insert((41, 9))
        assert [k for k, _ in tree.range((42, 0), (42, 1 << 60))] == [
            (42, 1),
            (42, 2),
        ]


class TestRange:
    @pytest.fixture()
    def tree(self):
        tree = BPlusTree(order=4)
        for key in range(0, 100, 2):  # even keys 0..98
            tree.insert(key, -key)
        return tree

    def test_inclusive(self, tree):
        assert [k for k, _ in tree.range(10, 20)] == [10, 12, 14, 16, 18, 20]

    def test_exclusive_low(self, tree):
        assert [k for k, _ in tree.range(10, 16, include_low=False)] == [
            12,
            14,
            16,
        ]

    def test_exclusive_high(self, tree):
        assert [k for k, _ in tree.range(10, 16, include_high=False)] == [
            10,
            12,
            14,
        ]

    def test_bounds_between_keys(self, tree):
        assert [k for k, _ in tree.range(9, 15)] == [10, 12, 14]

    def test_open_low(self, tree):
        assert [k for k, _ in tree.range(None, 4)] == [0, 2, 4]

    def test_open_high(self, tree):
        assert [k for k, _ in tree.range(94, None)] == [94, 96, 98]

    def test_full_scan(self, tree):
        assert len(list(tree.range())) == 50

    def test_empty_interval(self, tree):
        assert list(tree.range(11, 11)) == []
        assert list(tree.range(50, 40)) == []


class TestDelete:
    def test_delete_present(self):
        tree = BPlusTree(order=4)
        for key in range(50):
            tree.insert(key)
        assert tree.delete(25)
        assert 25 not in tree
        assert len(tree) == 49
        tree.check_invariants()

    def test_delete_absent(self):
        tree = BPlusTree(order=4)
        tree.insert(1)
        assert not tree.delete(2)
        assert len(tree) == 1

    def test_delete_everything(self):
        tree = BPlusTree(order=4)
        keys = list(range(100))
        random.Random(3).shuffle(keys)
        for key in keys:
            tree.insert(key)
        random.Random(4).shuffle(keys)
        for key in keys:
            assert tree.delete(key)
        assert len(tree) == 0
        assert list(tree.items()) == []
        tree.check_invariants()

    def test_interleaved_insert_delete(self):
        tree = BPlusTree(order=4)
        rng = random.Random(11)
        shadow: set[int] = set()
        for _ in range(2000):
            key = rng.randrange(200)
            if key in shadow:
                assert tree.delete(key)
                shadow.discard(key)
            else:
                assert tree.insert(key)
                shadow.add(key)
        assert sorted(shadow) == [k for k, _ in tree.items()]
        tree.check_invariants()


class TestBulkLoad:
    def test_bulk_load_roundtrip(self):
        tree = BPlusTree(order=8)
        entries = [(i, str(i)) for i in range(500)]
        tree.bulk_load(entries)
        assert len(tree) == 500
        assert list(tree.items()) == entries
        tree.check_invariants()

    def test_bulk_load_rejects_unsorted(self):
        tree = BPlusTree(order=8)
        with pytest.raises(ValueError):
            tree.bulk_load([(2, None), (1, None)])

    def test_bulk_load_rejects_duplicates(self):
        tree = BPlusTree(order=8)
        with pytest.raises(ValueError):
            tree.bulk_load([(1, None), (1, None)])

    def test_bulk_load_then_mutate(self):
        tree = BPlusTree(order=4)
        tree.bulk_load([(i, None) for i in range(0, 100, 2)])
        tree.insert(51)
        tree.delete(50)
        keys = [k for k, _ in tree.items()]
        assert 51 in keys and 50 not in keys
        tree.check_invariants()

    @pytest.mark.parametrize("count", [0, 1, 2, 3, 7, 63, 64, 65, 1000])
    def test_bulk_load_sizes(self, count):
        tree = BPlusTree(order=8)
        tree.bulk_load([(i, None) for i in range(count)])
        assert len(tree) == count
        assert [k for k, _ in tree.items()] == list(range(count))
        tree.check_invariants()


@given(
    st.lists(
        st.tuples(st.integers(-1000, 1000), st.booleans()), max_size=300
    ),
    st.sampled_from([3, 4, 5, 7, 16, 64]),
)
@settings(max_examples=100, deadline=None)
def test_btree_behaves_like_dict(operations, order):
    """Model-based test: tree == dict under mixed insert/delete."""
    tree = BPlusTree(order=order)
    model: dict[int, int] = {}
    for key, is_insert in operations:
        if is_insert:
            tree.insert(key, key)
            model[key] = key
        else:
            assert tree.delete(key) == (key in model)
            model.pop(key, None)
    assert sorted(model.items()) == list(tree.items())
    tree.check_invariants()


@given(
    st.sets(st.integers(0, 500)),
    st.integers(0, 500),
    st.integers(0, 500),
    st.sampled_from([3, 4, 16]),
)
@settings(max_examples=100, deadline=None)
def test_range_matches_filter(keys, a, b, order):
    low, high = min(a, b), max(a, b)
    tree = BPlusTree(order=order)
    for key in keys:
        tree.insert(key)
    expected = sorted(k for k in keys if low <= k <= high)
    assert [k for k, _ in tree.range(low, high)] == expected


class TestReverseIteration:
    def test_descending_order(self):
        tree = BPlusTree(order=4)
        keys = list(range(300))
        random.Random(5).shuffle(keys)
        for key in keys:
            tree.insert(key)
        assert [k for k, _ in tree.items_reversed()] == list(
            reversed(range(300))
        )

    def test_empty(self):
        assert list(BPlusTree(order=4).items_reversed()) == []

    def test_after_bulk_load(self):
        tree = BPlusTree(order=8)
        tree.bulk_load([(i, i) for i in range(100)])
        assert [k for k, _ in tree.items_reversed()] == list(
            reversed(range(100))
        )

    @given(st.sets(st.integers(-100, 100)))
    @settings(max_examples=60, deadline=None)
    def test_reverse_of_forward(self, keys):
        tree = BPlusTree(order=4)
        for key in keys:
            tree.insert(key)
        forward = [k for k, _ in tree.items()]
        assert [k for k, _ in tree.items_reversed()] == forward[::-1]
