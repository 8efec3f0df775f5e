"""The typed range index (paper Section 4).

For one XML type (double, dateTime, ...) the index keeps:

* per non-rejected node, its FSM state plus the compact token payload
  (:class:`~repro.core.fsm.fragment.Fragment`) — the paper's
  ``[node id, state]`` side structure;
* a clustered B-tree on ``(typed value, nid)`` over the nodes whose
  fragment is a complete ("castable") lexical value — the paper's
  ``[value, state, node id]`` tuples supporting range lookups.

Nodes whose value is rejected by the FSM store *nothing* ("the absence
of a state signifies the reject state"), which is why the double index
stays at 2-3% of database size in the paper's Figure 9.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterator

from ..btree import BPlusTree
from .classify import legality_mask
from .concurrency import active_view
from .fsm import Fragment, REJECT_FRAGMENT, get_plugin

__all__ = ["TypedIndex"]

_MAX_NID = 1 << 62


class TypedIndex:
    """Range index over one XML type's castable values."""

    def __init__(self, type_name: str, order: int = 64):
        self.plugin = get_plugin(type_name)
        self.type_name = type_name
        #: Builder protocol: field contributed by absent content.
        self.identity = self.plugin.empty_fragment
        # nid -> Fragment, for non-rejected nodes only.
        self.fragment_of_node: dict[int, Fragment] = {}
        # nid -> typed value, for nodes present in the value tree
        # (needed to locate the (value, nid) key on maintenance).
        self._value_of: dict[int, Any] = {}
        self.tree = BPlusTree(order=order, key_bytes=12, value_bytes=0)
        self._staged: list[tuple[Any, int]] | None = None
        #: Counts entry changes; used to invalidate planner statistics.
        self.mutations = 0

    # ------------------------------------------------------------------
    # Builder protocol
    # ------------------------------------------------------------------

    def field_of_text(self, text: str) -> Fragment:
        """Run the FSM over a text value (paper Figure 7, line 7)."""
        return self.plugin.fragment_of_text(text)

    def field_of_texts(self, texts: list[str]) -> list[Fragment]:
        """Batch form of :meth:`field_of_text` (builder batch hook).

        Classifies all texts at once with the vectorized region kernel
        (:func:`repro.core.classify.legality_mask`): texts carrying any
        character outside the type's alphabet — the vast majority —
        reject without ever running the scalar tokenizer.
        """
        mask = legality_mask(self.plugin, texts)
        fragment_of_text = self.plugin.fragment_of_text
        if mask is None:
            return [fragment_of_text(text) for text in texts]
        return [
            fragment_of_text(text) if legal else REJECT_FRAGMENT
            for text, legal in zip(texts, mask)
        ]

    def combine(self, left: Fragment, right: Fragment) -> Fragment:
        """SCT probe + payload merge (paper Figure 7, lines 14/18)."""
        return self.plugin.combine(left, right)

    def begin_bulk(self) -> None:
        self._staged = []

    def stage_entry(self, nid: int, field: Fragment) -> None:
        if field.state == 0:  # rejected: store nothing
            return
        self.fragment_of_node[nid] = field
        value = self.plugin.cast(field)
        if value is not None:
            self._value_of[nid] = value
            self._staged.append((value, nid))

    def is_stored_field(self, field: Fragment) -> bool:
        """True iff staging ``field`` would store anything (parallel
        chunk workers drop rejected entries before shipping them)."""
        return field.state != 0

    def stage_entries(self, pairs: list[tuple[int, Fragment]]) -> None:
        """Batch form of :meth:`stage_entry` over ``(nid, field)`` runs."""
        for nid, field in pairs:
            self.stage_entry(nid, field)

    def finish_bulk(self) -> None:
        """Bulk-load the value tree, merging entries of earlier loads."""
        staged = self._staged
        self._staged = None
        staged.sort()
        self.mutations += len(staged)
        if len(self.tree):
            existing = list(self.tree.keys())
            entries = heapq.merge(existing, ((v, n) for v, n in staged))
        else:
            entries = iter(staged)
        self.tree.bulk_load((key, None) for key in entries)

    def set_entry(self, nid: int, field: Fragment) -> None:
        self.mutations += 1
        old_value = self._value_of.pop(nid, None)
        if old_value is not None:
            self.tree.delete((old_value, nid))
        if field.state == 0:
            self.fragment_of_node.pop(nid, None)
            return
        self.fragment_of_node[nid] = field
        value = self.plugin.cast(field)
        if value is not None:
            self._value_of[nid] = value
            self.tree.insert((value, nid))

    def remove_entry(self, nid: int) -> None:
        self.mutations += 1
        self.fragment_of_node.pop(nid, None)
        old_value = self._value_of.pop(nid, None)
        if old_value is not None:
            self.tree.delete((old_value, nid))

    def remove_entries(self, nids) -> int:
        """Bulk form of :meth:`remove_entry` (document unload).

        Drops all side-structure entries and removes the value-tree
        keys in one :meth:`~repro.btree.BPlusTree.remove_many` pass.
        Returns the number of nodes that had a stored state.
        """
        keys = []
        removed = 0
        fragment_of_node = self.fragment_of_node
        value_of = self._value_of
        for nid in nids:
            if fragment_of_node.pop(nid, None) is not None:
                removed += 1
            old_value = value_of.pop(nid, None)
            if old_value is not None:
                keys.append((old_value, nid))
        if keys:
            self.tree.remove_many(keys)
        if removed or keys:
            self.mutations += max(removed, len(keys))
        return removed

    def field_of(self, nid: int) -> Fragment:
        """Stored fragment of a node (REJECT for absent entries)."""
        return self.fragment_of_node.get(nid, REJECT_FRAGMENT)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def value_of(self, nid: int) -> Any:
        """Typed value of a node, or None if not castable."""
        return self._value_of.get(nid)

    def _lookup_tree(self):
        """The tree to answer lookups from: the active read view's
        pinned snapshot when one is installed, else the live tree."""
        view = active_view()
        if view is not None:
            pinned = view.tree_for(self)
            if pinned is not None:
                return pinned
        return self.tree

    def lookup_equal(self, value: Any) -> Iterator[int]:
        """nids whose typed value equals ``value`` (no false positives)."""
        for (_value, nid), _none in self._lookup_tree().range(
            (value, -1), (value, _MAX_NID)
        ):
            yield nid

    def lookup_range(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[tuple[Any, int]]:
        """(value, nid) pairs with ``low <op> value <op> high``."""
        low_key = None if low is None else (low, -1 if include_low else _MAX_NID)
        high_key = None if high is None else (high, _MAX_NID if include_high else -1)
        for (value, nid), _none in self._lookup_tree().range(
            low_key, high_key, include_low=True, include_high=include_high
        ):
            yield value, nid

    def range_nids(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> list[int]:
        """Batched :meth:`lookup_range` returning just the nids.

        Collects the ``(value, nid)`` keys with the tree's leaf-slice
        range scan (one list, no per-entry generator frames) — the
        index-scan primitive of the query executor.
        """
        low_key = None if low is None else (low, -1 if include_low else _MAX_NID)
        high_key = None if high is None else (high, _MAX_NID if include_high else -1)
        keys = self._lookup_tree().range_keys(
            low_key, high_key, include_low=True, include_high=include_high
        )
        return [nid for _value, nid in keys]

    def top_values(
        self, k: int, largest: bool = True
    ) -> list[tuple[Any, int]]:
        """The ``k`` extreme (value, nid) entries of the value tree.

        ``largest=True`` walks the tree right-to-left (descending
        values); ``False`` returns the smallest entries ascending.
        """
        if k <= 0:
            return []
        tree = self._lookup_tree()
        entries = tree.items_reversed() if largest else tree.items()
        result = []
        for (value, nid), _none in entries:
            result.append((value, nid))
            if len(result) == k:
                break
        return result

    # ------------------------------------------------------------------
    # Statistics / storage model
    # ------------------------------------------------------------------

    def potential_count(self) -> int:
        """Nodes with a stored (non-rejected) state."""
        return len(self.fragment_of_node)

    def castable_count(self) -> int:
        """Nodes with a complete typed value in the value tree."""
        return len(self._value_of)

    def byte_size(self) -> int:
        """Modelled storage: 8 bytes per indexed value, the per-node
        state/payload bytes for every stored fragment, and the value
        tree's inner overhead — mirroring the paper's [value, state]
        accounting (their XMark1 double index is ~9 bytes per indexed
        node: an 8-byte double + 1-byte state)."""
        size = 8 * len(self._value_of)
        byte_size_of = self.plugin.byte_size_of
        for fragment in self.fragment_of_node.values():
            size += byte_size_of(fragment)
        return size + self.tree.inner_byte_size()
