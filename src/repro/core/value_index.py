"""The index protocol: what every value index is, and how it is kept.

An index assigns each node a *field* (a hash, an FSM fragment, a gram
set).  The creation pass (Figure 7, :mod:`repro.core.builder`) and the
maintenance pass (Figure 8, :mod:`repro.core.updater`) compute fields
for all indices at once and hand them over through the methods below;
indices differ only in their algebra and their key function:

=====================  ==============================================
a subclass supplies    meaning
=====================  ==============================================
``identity``           field contributed by absent content
``field_of_text``      field of a text/attribute value (``H``, FSM)
``combine``            fold a child's field into its parent's (``C``,
                       the SCT); must be associative
``stores``             whether a field is kept at all (default: yes)
``key_of``             the field's tree key, ``None`` for none
                       (default: the field itself)
``absent``             what ``field_of`` reports for unstored nodes
``pack_fields`` /      the field column's on-disk bytes, with
``unpack_fields``      ``column`` naming its file suffix and section
=====================  ==============================================

Everything else — the stored-field map, the ``(key, nid)`` B+-tree,
bulk staging, entry maintenance, the snapshot-aware lookup tree and the
``mutations`` drift counter — lives here once.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterable, Iterator

from ..btree import BPlusTree
from .concurrency import active_view

__all__ = ["ValueIndex"]


class ValueIndex:
    """Base of the string, typed and substring indices.

    Args:
        kind: The index's name under its manager (``"string"``, an XML
            type name, ``"substring"``).
        tree: The ``(key, nid)`` tree, or ``None`` for an index that
            keeps its keys elsewhere and therefore cannot be
            snapshotted (see :attr:`snapshottable`).
    """

    #: Field contributed by absent content.
    identity: Any = None
    #: What :meth:`field_of` reports for a node that stores nothing.
    absent: Any = None
    #: ``(file suffix, section tag)`` of the persisted field column, or
    #: ``None`` when the index is re-derived from the documents at open.
    column: tuple[str, str] | None = None
    #: Planner statistics class built over the tree (``from_tree``).
    statistics_type: Any = None

    def __init__(self, kind: str, tree: BPlusTree | None):
        self.kind = kind
        #: nid -> stored field; the per-node "field" of paper Figure 7.
        self.fields: dict[int, Any] = {}
        self.tree = tree
        self._staged: list[tuple[Any, int]] | None = None
        #: Counts stored-field changes; planner statistics refresh once
        #: this has drifted far enough from their snapshot.
        self.mutations = 0

    @property
    def snapshottable(self) -> bool:
        """True iff read views can pin this index (copy-on-write tree).
        Text updates run under the shared latch only when every index
        is snapshottable; otherwise they drain readers first."""
        return self.tree is not None

    # ------------------------------------------------------------------
    # Algebra and key function (subclass)
    # ------------------------------------------------------------------

    def field_of_text(self, text: str) -> Any:
        raise NotImplementedError

    def field_of_texts(self, texts: list[str]) -> list:
        """Batch form of :meth:`field_of_text`."""
        field_of_text = self.field_of_text
        return [field_of_text(text) for text in texts]

    def combine(self, left: Any, right: Any) -> Any:
        raise NotImplementedError

    def stores(self, field: Any) -> bool:
        """True iff ``field`` is kept ("the absence of a state
        signifies the reject state")."""
        return True

    def key_of(self, field: Any) -> Any:
        """Tree key of a stored field; ``None`` keeps it out of the tree."""
        return field

    def spec(self) -> tuple:
        """Picklable ``(class, args)`` recipe for an empty copy of this
        index (parallel chunk workers rebuild the algebra from it)."""
        return (type(self), ())

    def pack_fields(self, fields: list) -> bytes:
        raise NotImplementedError

    def unpack_fields(self, payload: bytes, count: int) -> list:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Bulk staging (creation, reopen)
    # ------------------------------------------------------------------

    def begin_bulk(self) -> None:
        """Enter bulk mode: entries staged, tree built at the end."""
        self._staged = []

    def stage_entry(self, nid: int, field: Any) -> None:
        """Record a node's field during creation (bulk mode)."""
        if self.stores(field):
            self.fields[nid] = field
            key = self.key_of(field)
            if key is not None:
                self._staged.append((key, nid))

    def stage_entries(self, pairs: Iterable[tuple[int, Any]]) -> None:
        """:meth:`stage_entry` over a run of ``(nid, field)`` pairs."""
        stage_entry = self.stage_entry
        for nid, field in pairs:
            stage_entry(nid, field)

    def finish_bulk(self) -> None:
        """Sort the staged keys and bulk-load the tree, merging in the
        keys already there (earlier documents keep their coverage)."""
        staged = self._staged
        self._staged = None
        staged.sort()
        self.mutations += len(staged)
        if len(self.tree):
            staged = heapq.merge(self.tree.keys(), staged)
        self.tree.bulk_load((key, None) for key in staged)

    # ------------------------------------------------------------------
    # Entry maintenance (updates)
    # ------------------------------------------------------------------

    def _rekey(self, nid: int, old: Any, new: Any) -> None:
        """Move ``nid``'s key from ``old``'s to ``new``'s (``None`` =
        no stored field)."""
        old_key = None if old is None else self.key_of(old)
        new_key = None if new is None else self.key_of(new)
        if old_key != new_key:
            if old_key is not None:
                self.tree.delete((old_key, nid))
            if new_key is not None:
                self.tree.insert((new_key, nid))

    def set_entry(self, nid: int, field: Any) -> None:
        """Insert or refresh one node's entry; a no-op (and no
        mutation) when the stored field does not change."""
        if not self.stores(field):
            self.remove_entry(nid)
            return
        old = self.fields.get(nid)
        if old == field:
            return
        self.fields[nid] = field
        self._rekey(nid, old, field)
        self.mutations += 1

    def remove_entry(self, nid: int) -> None:
        """Drop a node's entry (subtree deletion)."""
        old = self.fields.pop(nid, None)
        if old is not None:
            self._rekey(nid, old, None)
            self.mutations += 1

    def remove_entries(self, nids: Iterable[int]) -> int:
        """Bulk :meth:`remove_entry` (document unload): pops the stored
        fields, then drops their keys in one
        :meth:`~repro.btree.BPlusTree.remove_many` pass instead of one
        tree descent per node.  Returns the number of entries removed."""
        fields = self.fields
        key_of = self.key_of
        removed = 0
        keys = []
        for nid in nids:
            old = fields.pop(nid, None)
            if old is not None:
                removed += 1
                key = key_of(old)
                if key is not None:
                    keys.append((key, nid))
        if keys:
            self.tree.remove_many(keys)
        self.mutations += removed
        return removed

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def field_of(self, nid: int) -> Any:
        """Stored field of a node (:attr:`absent` if none)."""
        return self.fields.get(nid, self.absent)

    def value_of(self, nid: int) -> Any:
        """Tree key of a node, or ``None`` if it has none."""
        field = self.fields.get(nid)
        return None if field is None else self.key_of(field)

    def entries(self) -> Iterator[tuple[Any, int]]:
        """Every ``(key, nid)`` entry of the live index, in key order."""
        return self.tree.keys()

    def _lookup_tree(self):
        """The tree to answer lookups from: the active read view's
        pinned snapshot when one is installed, else the live tree."""
        view = active_view()
        if view is not None:
            pinned = view.tree_for(self)
            if pinned is not None:
                return pinned
        return self.tree

    def __len__(self) -> int:
        """Number of nodes with a stored field."""
        return len(self.fields)
