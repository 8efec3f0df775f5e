"""A from-scratch in-memory B+tree with copy-on-write updates.

Both paper indices sit on B-tree structures: "a (B-tree) index,
constructed on the hash values" (Section 3) and "a clustered (b-tree)
index is built on top of the typed values" (Section 4).  This module
provides the shared substrate: an order-configurable B+tree with
point/range lookups and bulk loading for index creation.

**Concurrency model.**  Every mutation (``insert``/``delete``) is
*path-copying*: the nodes along the root-to-leaf descent are cloned,
the clones are modified, and the new root is installed with a single
reference assignment at the very end.  Nodes reachable from a
previously published root are never modified in place, so any reader
that captured the root — every read method captures it once per call,
and :meth:`snapshot` pins it explicitly — iterates an immutable tree.
A cursor can therefore never skip or double-yield keys because of a
concurrent leaf split; it simply sees the tree as of the moment the
iterator was created (see ``docs/concurrency.md``).

Keys must be mutually comparable; entries are unique by key.  Indices
that need duplicate logical keys (many nodes per hash value) append the
node id to the key tuple, which is also how the paper lays out its
``[value, state, node id]`` tuples.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterable, Iterator

__all__ = ["BPlusTree", "TreeSnapshot"]


class _Leaf:
    __slots__ = ("keys", "values")

    def __init__(self) -> None:
        self.keys: list[Any] = []
        self.values: list[Any] = []


class _Inner:
    __slots__ = ("keys", "children")

    def __init__(self) -> None:
        # children[i] covers keys < keys[i]; children[-1] covers the rest.
        self.keys: list[Any] = []
        self.children: list[Any] = []


def _clone(node: _Leaf | _Inner) -> _Leaf | _Inner:
    """Shallow-copy one node (the unit of copy-on-write)."""
    if isinstance(node, _Leaf):
        copy = _Leaf()
        copy.keys = node.keys[:]
        copy.values = node.values[:]
        return copy
    copy = _Inner()
    copy.keys = node.keys[:]
    copy.children = node.children[:]
    return copy


# ---------------------------------------------------------------------------
# Root-based read algorithms (shared by the live tree and snapshots)
# ---------------------------------------------------------------------------


def _find_in(root: _Leaf | _Inner, key: Any) -> tuple[_Leaf, int]:
    """Descend from ``root`` to the leaf that should hold ``key``."""
    node = root
    while isinstance(node, _Inner):
        idx = bisect.bisect_right(node.keys, key)
        node = node.children[idx]
    return node, bisect.bisect_left(node.keys, key)


def _iter_items(root: _Leaf | _Inner) -> Iterator[tuple[Any, Any]]:
    """All entries under ``root`` in ascending key order."""
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, _Inner):
            stack.extend(reversed(node.children))  # leftmost popped first
        else:
            yield from zip(node.keys, node.values)


def _iter_items_reversed(root: _Leaf | _Inner) -> Iterator[tuple[Any, Any]]:
    """All entries under ``root`` in descending key order."""
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, _Inner):
            stack.extend(node.children)  # rightmost popped first
        else:
            yield from zip(reversed(node.keys), reversed(node.values))


def _iter_range(
    root: _Leaf | _Inner,
    low: Any,
    high: Any,
    include_low: bool,
    include_high: bool,
) -> Iterator[tuple[Any, Any]]:
    """Entries under ``root`` with ``low <= key <= high`` (bounds
    optional, strictness per the include flags)."""
    # Descend to the leaf holding ``low``, stacking the right-sibling
    # subtrees of the descent path (deepest on top, so they pop in
    # ascending key order).
    stack: list[Any] = []
    if low is None:
        leaf, idx = root, 0
        while isinstance(leaf, _Inner):
            stack.extend(reversed(leaf.children[1:]))
            leaf = leaf.children[0]
    else:
        node = root
        while isinstance(node, _Inner):
            child = bisect.bisect_right(node.keys, low)
            stack.extend(reversed(node.children[child + 1 :]))
            node = node.children[child]
        leaf = node
        idx = bisect.bisect_left(leaf.keys, low)
        if not include_low:
            while idx < len(leaf.keys) and leaf.keys[idx] == low:
                idx += 1

    keys = leaf.keys
    for i in range(idx, len(keys)):
        key = keys[i]
        if high is not None:
            if key > high or (not include_high and key == high):
                return
        yield key, leaf.values[i]
    while stack:
        node = stack.pop()
        if isinstance(node, _Inner):
            stack.extend(reversed(node.children))
            continue
        for i, key in enumerate(node.keys):
            if high is not None:
                if key > high or (not include_high and key == high):
                    return
            yield key, node.values[i]


def _collect_range_keys(
    root: _Leaf | _Inner,
    low: Any,
    high: Any,
    include_low: bool,
    include_high: bool,
) -> list[Any]:
    """Keys with ``low <= key <= high`` as one list, built from
    C-level leaf slices instead of a per-entry generator chain.

    This is the batch executor's index-scan primitive: for wide range
    predicates the per-entry frame switches of :func:`_iter_range`
    dominate the whole lookup, while slicing each leaf's sorted key
    list costs one ``bisect`` per boundary leaf and one ``extend`` per
    leaf in between.
    """
    out: list[Any] = []
    stack: list[Any] = []
    if low is None:
        leaf: Any = root
        while isinstance(leaf, _Inner):
            stack.extend(reversed(leaf.children[1:]))
            leaf = leaf.children[0]
        idx = 0
    else:
        node = root
        while isinstance(node, _Inner):
            child = bisect.bisect_right(node.keys, low)
            stack.extend(reversed(node.children[child + 1 :]))
            node = node.children[child]
        leaf = node
        if include_low:
            idx = bisect.bisect_left(leaf.keys, low)
        else:
            idx = bisect.bisect_right(leaf.keys, low)
    while True:
        keys = leaf.keys
        if high is None:
            stop = len(keys)
        elif include_high:
            stop = bisect.bisect_right(keys, high, idx)
        else:
            stop = bisect.bisect_left(keys, high, idx)
        out.extend(keys[idx:] if stop == len(keys) else keys[idx:stop])
        if stop < len(keys):
            return out
        idx = 0
        leaf = None
        while stack:
            node = stack.pop()
            if isinstance(node, _Inner):
                stack.extend(reversed(node.children))
                continue
            leaf = node
            break
        if leaf is None:
            return out


class TreeSnapshot:
    """An immutable point-in-time view of a :class:`BPlusTree`.

    Holds the root published at capture time; later mutations of the
    live tree build fresh nodes and never touch this root, so every
    read — point, range, full scan — is consistent with the capture.
    """

    __slots__ = ("_root", "_size", "_height")

    def __init__(self, root: _Leaf | _Inner, size: int, height: int):
        self._root = root
        self._size = size
        self._height = height

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        return self._height

    def __contains__(self, key: Any) -> bool:
        leaf, idx = _find_in(self._root, key)
        return idx < len(leaf.keys) and leaf.keys[idx] == key

    def get(self, key: Any, default: Any = None) -> Any:
        leaf, idx = _find_in(self._root, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            return leaf.values[idx]
        return default

    def items(self) -> Iterator[tuple[Any, Any]]:
        return _iter_items(self._root)

    def items_reversed(self) -> Iterator[tuple[Any, Any]]:
        return _iter_items_reversed(self._root)

    def range(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[tuple[Any, Any]]:
        return _iter_range(self._root, low, high, include_low, include_high)



class BPlusTree:
    """An in-memory B+tree map with copy-on-write mutations.

    Args:
        order: Maximum number of keys per node (≥ 3).
    """

    def __init__(self, order: int = 64):
        if order < 3:
            raise ValueError("order must be at least 3")
        self._order = order
        self._root: _Leaf | _Inner = _Leaf()
        self._size = 0
        self._height = 1
        # (root, size, height) swapped as one tuple at every
        # publication point, so snapshot() never pairs an old root with
        # a new size/height even when called off the writer lock.
        self._published: tuple[_Leaf | _Inner, int, int] = (self._root, 0, 1)

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: Any) -> bool:
        leaf, idx = _find_in(self._root, key)
        return idx < len(leaf.keys) and leaf.keys[idx] == key

    def get(self, key: Any, default: Any = None) -> Any:
        """Point lookup."""
        leaf, idx = _find_in(self._root, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            return leaf.values[idx]
        return default

    @property
    def height(self) -> int:
        """Number of levels (1 = a single leaf)."""
        return self._height

    def snapshot(self) -> TreeSnapshot:
        """Pin the current root as an immutable :class:`TreeSnapshot`.

        O(1): no copying happens at capture time; copy-on-write happens
        on the *writer's* side, one path per mutation.  Reads the
        single published (root, size, height) tuple, so the triple is
        always mutually consistent even off the writer lock.
        """
        root, size, height = self._published
        return TreeSnapshot(root, size, height)

    def _publish(self, root: _Leaf | _Inner) -> None:
        """Install ``root`` and its consistent (size, height) triple."""
        self._root = root
        self._published = (root, self._size, self._height)

    # ------------------------------------------------------------------
    # Insertion (path-copying)
    # ------------------------------------------------------------------

    def insert(self, key: Any, value: Any = None) -> bool:
        """Insert ``key``; returns False (and overwrites) if present."""
        new_root: _Leaf | _Inner = _clone(self._root)
        path: list[tuple[_Inner, int]] = []
        node = new_root
        while isinstance(node, _Inner):
            idx = bisect.bisect_right(node.keys, key)
            child = _clone(node.children[idx])
            node.children[idx] = child
            path.append((node, idx))
            node = child
        idx = bisect.bisect_left(node.keys, key)
        if idx < len(node.keys) and node.keys[idx] == key:
            node.values[idx] = value
            self._publish(new_root)
            return False
        node.keys.insert(idx, key)
        node.values.insert(idx, value)
        self._size += 1
        if len(node.keys) > self._order:
            new_root = self._split(node, path, new_root)
        self._publish(new_root)  # publication point
        return True

    def _split(
        self,
        node: _Leaf | _Inner,
        path: list[tuple[_Inner, int]],
        root: _Leaf | _Inner,
    ) -> _Leaf | _Inner:
        """Split an over-full (already cloned) node; returns the root
        of the new version (a fresh one when the split reaches it)."""
        while True:
            mid = len(node.keys) // 2
            if isinstance(node, _Leaf):
                sibling: _Leaf | _Inner = _Leaf()
                sibling.keys = node.keys[mid:]
                sibling.values = node.values[mid:]
                del node.keys[mid:]
                del node.values[mid:]
                separator = sibling.keys[0]
            else:
                sibling = _Inner()
                separator = node.keys[mid]
                sibling.keys = node.keys[mid + 1 :]
                sibling.children = node.children[mid + 1 :]
                del node.keys[mid:]
                del node.children[mid + 1 :]
            if path:
                parent, idx = path.pop()
                parent.keys.insert(idx, separator)
                parent.children.insert(idx + 1, sibling)
                if len(parent.keys) <= self._order:
                    return root
                node = parent
                continue
            new_root = _Inner()
            new_root.keys = [separator]
            new_root.children = [node, sibling]
            self._height += 1
            return new_root

    # ------------------------------------------------------------------
    # Deletion (path-copying)
    # ------------------------------------------------------------------

    def delete(self, key: Any) -> bool:
        """Remove ``key``; returns False if it was absent.

        Uses lazy deletion for structure (nodes may underflow; empty
        leaves are unlinked) — standard for in-memory B+trees where
        rebalance cost is not repaid.
        """
        new_root: _Leaf | _Inner = _clone(self._root)
        path: list[tuple[_Inner, int]] = []
        node = new_root
        while isinstance(node, _Inner):
            idx = bisect.bisect_right(node.keys, key)
            child = _clone(node.children[idx])
            node.children[idx] = child
            path.append((node, idx))
            node = child
        idx = bisect.bisect_left(node.keys, key)
        if idx >= len(node.keys) or node.keys[idx] != key:
            return False  # absent: the live root stays published
        del node.keys[idx]
        del node.values[idx]
        self._size -= 1
        if not node.keys and path:
            self._drop_empty_leaf(path)
            new_root = self._collapse(new_root)
        self._publish(new_root)  # publication point
        return True

    def _drop_empty_leaf(self, path: list[tuple[_Inner, int]]) -> None:
        """Remove an emptied leaf from its (cloned) ancestors,
        propagating removal of inner nodes that become childless."""
        for parent, idx in reversed(path):
            del parent.children[idx]
            if parent.keys:
                del parent.keys[idx - 1 if idx > 0 else 0]
            if parent.children:
                break

    def _collapse(self, root: _Leaf | _Inner) -> _Leaf | _Inner:
        """Shed single-child and childless root levels."""
        while isinstance(root, _Inner) and len(root.children) == 1:
            root = root.children[0]
            self._height -= 1
        if isinstance(root, _Inner) and not root.children:
            root = _Leaf()
            self._height = 1
        return root

    # ------------------------------------------------------------------
    # Range scans
    # ------------------------------------------------------------------

    def items(self) -> Iterator[tuple[Any, Any]]:
        """All entries in key order, as of the call."""
        return _iter_items(self._root)

    def items_reversed(self) -> Iterator[tuple[Any, Any]]:
        """All entries in descending key order, as of the call."""
        return _iter_items_reversed(self._root)

    def range(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[tuple[Any, Any]]:
        """Entries with ``low <= key <= high`` (bounds optional).

        ``include_low``/``include_high`` toggle bound strictness, giving
        the four interval kinds range predicates need.  The cursor runs
        over the root captured at call time: concurrent copy-on-write
        mutations never disturb it.
        """
        return _iter_range(self._root, low, high, include_low, include_high)

    def range_keys(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> list[Any]:
        """Batched :meth:`range` over keys only (leaf-slice collection
        against the root captured at call time; see
        :func:`_collect_range_keys`)."""
        return _collect_range_keys(
            self._root, low, high, include_low, include_high
        )

    # ------------------------------------------------------------------
    # Bulk loading
    # ------------------------------------------------------------------

    def bulk_load(self, entries: Iterable[tuple[Any, Any]]) -> None:
        """Replace the tree contents from key-sorted unique ``entries``.

        Builds packed leaves bottom-up — this is what index *creation*
        uses (paper Figure 7 produces all entries in one pass; sorting
        them and packing is the classical bulk build).  The new root is
        installed only once fully built, so concurrent snapshot readers
        see either the old contents or the new, never a mix.
        """
        fill = max(2, (self._order * 3) // 4)
        leaves: list[_Leaf] = []
        current = _Leaf()
        count = 0
        previous_key = None
        for key, value in entries:
            if previous_key is not None and key <= previous_key:
                raise ValueError("bulk_load requires strictly sorted keys")
            previous_key = key
            if len(current.keys) >= fill:
                leaves.append(current)
                current = _Leaf()
            current.keys.append(key)
            current.values.append(value)
            count += 1
        leaves.append(current)
        # Merge a trailing runt into its left sibling.
        if len(leaves) > 1 and len(leaves[-1].keys) < 2:
            runt = leaves.pop()
            leaves[-1].keys.extend(runt.keys)
            leaves[-1].values.extend(runt.values)
        height = 1
        level: list[Any] = leaves
        separators = [leaf.keys[0] for leaf in leaves[1:]]
        while len(level) > 1:
            parents: list[_Inner] = []
            parent_separators: list[Any] = []
            i = 0
            while i < len(level):
                inner = _Inner()
                take = min(fill + 1, len(level) - i)
                if len(level) - (i + take) == 1:
                    take -= 1  # never leave a single orphan child
                inner.children = level[i : i + take]
                inner.keys = separators[i : i + take - 1]
                if i + take < len(level):
                    parent_separators.append(separators[i + take - 1])
                parents.append(inner)
                i += take
            level = parents
            separators = parent_separators
            height += 1
        self._size = count
        self._height = height
        self._publish(level[0])  # publication point

    def check_invariants(self) -> None:
        """Validate structural invariants (test support).

        Checks sorted keys, key/child arity, full-scan completeness and
        the separator property on every path.
        """
        entries = list(self.items())
        keys = [k for k, _ in entries]
        assert keys == sorted(keys), "scan out of order"
        assert len(set(keys)) == len(keys), "duplicate keys"
        assert len(keys) == self._size, "size counter drift"

        def walk(node, low, high, depth):
            if isinstance(node, _Inner):
                assert len(node.children) == len(node.keys) + 1
                assert node.keys == sorted(node.keys)
                bounds = [low, *node.keys, high]
                depths = set()
                for i, child in enumerate(node.children):
                    depths.add(walk(child, bounds[i], bounds[i + 1], depth + 1))
                assert len(depths) == 1, "leaves at unequal depth"
                return depths.pop()
            assert node.keys == sorted(node.keys)
            for key in node.keys:
                if low is not None:
                    assert key >= low
                if high is not None:
                    assert key < high
            return depth

        leaf_depth = walk(self._root, None, None, 1)
        assert leaf_depth == self._height, "height counter drift"
