"""Structural tests for bottom-up bulk loading and bulk removal.

The creation path (paper Figure 7) produces all index entries in one
pass; :meth:`BPlusTree.bulk_load` packs them into leaves bottom-up
instead of inserting one by one.  These tests pin down the structural
contract — packed leaves, correct inner separators — and the
equivalence with an insert-built tree.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree.bplus import BPlusTree, _Inner


def bulk_loaded(entries, order=8):
    tree = BPlusTree(order=order)
    tree.bulk_load(entries)
    return tree


def leaves_of(tree):
    """Leaves reached through the inner levels, left to right."""
    level = [tree._root]
    while isinstance(level[0], _Inner):
        level = [child for node in level for child in node.children]
    return level


class TestLeafScan:
    def test_scan_covers_every_leaf(self):
        tree = bulk_loaded([(i, None) for i in range(1000)])
        scanned = [k for k, _ in tree.items()]
        from_leaves = [k for leaf in leaves_of(tree) for k in leaf.keys]
        assert scanned == from_leaves

    def test_scan_yields_entries_in_order(self):
        entries = [(i, -i) for i in range(777)]
        tree = bulk_loaded(entries)
        assert list(tree.items()) == entries


class TestFillFactor:
    @pytest.mark.parametrize("order", [4, 8, 64])
    def test_leaves_packed_to_fill(self, order):
        """Every leaf except the last holds exactly fill keys."""
        fill = max(2, (order * 3) // 4)
        tree = bulk_loaded([(i, None) for i in range(10 * fill + 1)],
                           order=order)
        leaves = leaves_of(tree)
        assert all(len(leaf.keys) == fill for leaf in leaves[:-1])
        assert 2 <= len(leaves[-1].keys) <= fill + 1

    def test_no_runt_leaf(self):
        """A trailing 1-key leaf is merged into its left sibling."""
        fill = max(2, (8 * 3) // 4)  # 6
        tree = bulk_loaded([(i, None) for i in range(fill + 1)])
        leaves = leaves_of(tree)
        assert len(leaves) == 1
        assert len(leaves[0].keys) == fill + 1

    @pytest.mark.parametrize("order", [4, 8, 16])
    def test_inner_nodes_never_orphan_a_child(self, order):
        for count in range(0, 400, 7):
            tree = bulk_loaded([(i, None) for i in range(count)],
                               order=order)
            stack = [tree._root]
            while stack:
                node = stack.pop()
                if isinstance(node, _Inner):
                    assert len(node.children) >= 2
                    stack.extend(node.children)


class TestInnerSeparators:
    @pytest.mark.parametrize("count", [10, 100, 1000, 5000])
    def test_separator_is_smallest_key_of_right_subtree(self, count):
        tree = bulk_loaded([(i * 3, None) for i in range(count)], order=4)

        def smallest(node):
            while isinstance(node, _Inner):
                node = node.children[0]
            return node.keys[0]

        stack = [tree._root]
        while stack:
            node = stack.pop()
            if isinstance(node, _Inner):
                for sep, right in zip(node.keys, node.children[1:]):
                    assert sep == smallest(right)
                stack.extend(node.children)

    def test_lookups_after_bulk_load(self):
        keys = list(range(0, 3000, 3))
        tree = bulk_loaded([(k, str(k)) for k in keys], order=4)
        for key in random.Random(2).sample(keys, 200):
            assert tree.get(key) == str(key)
        assert tree.get(1) is None
        assert tree.get(2999) is None


class TestEquivalenceWithInserts:
    @pytest.mark.parametrize("count", [0, 1, 5, 64, 500])
    def test_same_contents_and_scans(self, count):
        entries = [(i, i * i) for i in range(count)]
        bulk = bulk_loaded(entries)
        incremental = BPlusTree(order=8)
        shuffled = entries[:]
        random.Random(9).shuffle(shuffled)
        for key, value in shuffled:
            incremental.insert(key, value)
        assert list(bulk.items()) == list(incremental.items())
        assert list(bulk.items_reversed()) == list(
            incremental.items_reversed()
        )
        assert list(bulk.range(count // 3, 2 * count // 3)) == list(
            incremental.range(count // 3, 2 * count // 3)
        )
        assert len(bulk) == len(incremental)
        bulk.check_invariants()

    def test_mutations_after_bulk_load_behave(self):
        tree = bulk_loaded([(i, None) for i in range(200)], order=4)
        for key in range(0, 200, 2):
            assert tree.delete(key)
        for key in range(200, 260):
            assert tree.insert(key)
        expected = sorted(set(range(1, 200, 2)) | set(range(200, 260)))
        assert [k for k, _ in tree.items()] == expected
        tree.check_invariants()


class TestEdgeCases:
    def test_empty(self):
        tree = bulk_loaded([])
        assert len(tree) == 0
        assert list(tree.items()) == []
        assert tree.get(0) is None
        tree.check_invariants()

    def test_single_key(self):
        tree = bulk_loaded([(7, "seven")])
        assert len(tree) == 1
        assert tree.get(7) == "seven"
        assert tree.height == 1
        tree.check_invariants()

    def test_duplicate_suffix_tuple_keys(self):
        """(value, nid) keys sharing the value prefix stay distinct and
        scan in nid order — the shape every index tree uses."""
        entries = [((42.0, nid), None) for nid in range(50)]
        entries += [((43.0, nid), None) for nid in range(50)]
        tree = bulk_loaded(entries, order=4)
        hits = [k for k, _ in tree.range((42.0, -1), (42.0, 1 << 60))]
        assert hits == [(42.0, nid) for nid in range(50)]
        tree.check_invariants()

    def test_rejects_equal_adjacent_keys(self):
        with pytest.raises(ValueError):
            bulk_loaded([(1, None), (2, None), (2, None)])

    def test_rejects_descending_keys(self):
        with pytest.raises(ValueError):
            bulk_loaded([(3, None), (1, None)])

    def test_reload_replaces_contents(self):
        tree = bulk_loaded([(i, None) for i in range(100)])
        tree.bulk_load([(i, None) for i in range(5)])
        assert [k for k, _ in tree.items()] == list(range(5))
        tree.check_invariants()


@given(
    st.sets(st.integers(-10_000, 10_000), max_size=400),
    st.sampled_from([3, 4, 8, 64]),
)
@settings(max_examples=100, deadline=None)
def test_bulk_load_equals_insert_built(keys, order):
    entries = [(k, k) for k in sorted(keys)]
    bulk = BPlusTree(order=order)
    bulk.bulk_load(entries)
    incremental = BPlusTree(order=order)
    for key, value in entries:
        incremental.insert(key, value)
    assert list(bulk.items()) == list(incremental.items())
    bulk.check_invariants()


def delete_all(tree, keys):
    """Delete ``keys`` one by one; return how many were present."""
    return sum(tree.delete(key) for key in keys)


class TestRemoveMany:
    """Deleting many keys from a bulk-loaded (packed) tree."""

    def test_small_batch_uses_deletes(self):
        tree = bulk_loaded([(i, None) for i in range(1000)])
        assert delete_all(tree, range(10)) == 10
        assert len(tree) == 990
        assert tree.get(5) is None
        tree.check_invariants()

    def test_absent_keys_do_not_count(self):
        tree = bulk_loaded([(i, None) for i in range(10)])
        assert delete_all(tree, [5, 100, 200]) == 1
        assert len(tree) == 9

    def test_empty_inputs(self):
        tree = bulk_loaded([(i, None) for i in range(10)])
        assert delete_all(tree, []) == 0
        assert delete_all(BPlusTree(order=4), [1, 2]) == 0

    def test_remove_everything(self):
        tree = bulk_loaded([(i, None) for i in range(100)])
        assert delete_all(tree, range(100)) == 100
        assert len(tree) == 0
        assert list(tree.items()) == []
        tree.check_invariants()

    @given(
        st.sets(st.integers(0, 300)),
        st.sets(st.integers(0, 300)),
        st.sampled_from([4, 8]),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_set_difference(self, keys, dropped, order):
        tree = BPlusTree(order=order)
        tree.bulk_load([(k, None) for k in sorted(keys)])
        removed = delete_all(tree, dropped)
        assert removed == len(keys & dropped)
        assert [k for k, _ in tree.items()] == sorted(keys - dropped)
        tree.check_invariants()
