"""The index protocol: what every value index is, and how it is kept.

An index assigns each node a *field* (a hash, an FSM fragment, a gram
set) and keeps a sorted ``(key, nid)`` run over the fields' keys.  The
creation pass (Figure 7, :mod:`repro.core.builder`) and the
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
``keys_of``            the field's tree keys: the field itself for
                       ``H`` (the default), the typed value if any,
                       the gram set for substring
``absent``             what ``field_of`` reports for unstored nodes
``pack_fields`` /      the field column's on-disk bytes, with
``unpack_fields``      ``column`` naming its file suffix and section
=====================  ==============================================

Everything else — the stored-field map, the sorted ``(key, nid)`` run,
bulk staging, entry maintenance, the snapshot-aware lookup tree and the
``mutations`` drift counter with the one rule that reads it — lives
here once.  Every index is a run, so a read view pins every index and
no index makes a text update drain readers.
"""

from __future__ import annotations

from typing import Any, Collection, Iterable, Iterator

from ..btree import SortedRun
from .concurrency import active_view

__all__ = ["ValueIndex", "STATS_DRIFT_MIN", "STATS_DRIFT_DENOMINATOR"]

#: An index folds its delta into a new base run — and its planner
#: statistics go stale — after this many absolute mutations ...
STATS_DRIFT_MIN = 100
#: ... or once the drift exceeds this fraction of the index size
#: (both in stored fields).
STATS_DRIFT_DENOMINATOR = 10


class ValueIndex:
    """Base of the string, typed and substring indices.

    Args:
        kind: The index's name under its manager (``"string"``, an XML
            type name, ``"substring"``).
        tree: The sorted ``(key, nid)`` run over :meth:`keys_of`.
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

    def __init__(self, kind: str, tree: SortedRun):
        self.kind = kind
        #: nid -> stored field; the per-node "field" of paper Figure 7.
        self.fields: dict[int, Any] = {}
        self.tree = tree
        #: (keys, their nids, ``len(fields)`` at ``begin_bulk``).
        self._staged: tuple[list, list[int], int] | None = None
        #: nid -> its field before the pending batch (``None``: none),
        #: for every node :meth:`store_field` wrote since the last
        #: :meth:`set_entries`.
        self._before: dict[int, Any] = {}
        #: Counts stored-field changes.
        self.mutations = 0
        #: ``mutations`` when the tree's base run was last rebuilt.
        #: Once the counter has drifted far enough from it the delta is
        #: folded; statistics taken before it are stale.
        self.folded_at = 0

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

    def keys_of(self, field: Any) -> Collection:
        """Tree keys of a stored field (empty keeps it out of the tree)."""
        return (field,)

    def pack_fields(self, fields: list) -> bytes:
        raise NotImplementedError

    def unpack_fields(self, payload: bytes, count: int) -> list:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Bulk staging (creation, reopen)
    # ------------------------------------------------------------------

    def begin_bulk(self) -> None:
        """Enter bulk mode: entries staged as a key and a nid column,
        merged into the tree at the end."""
        self._staged = ([], [], len(self.fields))

    def stage_entry(self, nid: int, field: Any) -> None:
        """Record a node's field during creation (bulk mode)."""
        if self.stores(field):
            self.fields[nid] = field
            keys = self.keys_of(field)
            staged_keys, nids, _ = self._staged
            staged_keys += keys
            nids += [nid] * len(keys)

    def stage_entries(self, pairs: Iterable[tuple[int, Any]]) -> None:
        """:meth:`stage_entry` over a run of ``(nid, field)`` pairs."""
        stage_entry = self.stage_entry
        for nid, field in pairs:
            stage_entry(nid, field)

    def finish_bulk(self) -> None:
        """Merge the staged columns into the tree's base run (earlier
        documents keep their coverage)."""
        keys, nids, before = self._staged
        self._staged = None
        if nids:
            self.tree.merge(keys, nids)
            self.mutations += len(self.fields) - before
            self.folded_at = self.mutations

    # ------------------------------------------------------------------
    # Entry maintenance (updates)
    # ------------------------------------------------------------------

    def store_field(self, nid: int, field: Any) -> None:
        """Store ``nid``'s field at once (``None``, or a field not
        :meth:`stores`, drops it) — the deepest-first fold of Figure 8
        reads it straight back — and remember the field it held before
        the batch.  The run follows at the next :meth:`set_entries`."""
        fields = self.fields
        old = fields.get(nid)
        if nid not in self._before:
            self._before[nid] = old
        if field is not None and self.stores(field):
            fields[nid] = field
        elif old is not None:
            del fields[nid]

    def set_entries(
        self, nids: Iterable[int] = (), fields: Iterable[Any] = ()
    ) -> None:
        """Store ``zip(nids, fields)`` (see :meth:`store_field`), then
        bring the run in line with every field stored since the last
        call in one batch: nimdbx's ``updateEntry`` rule, per node only
        the keys that differ between its old and its new field.  A node
        whose field ends where it started costs no entry and no
        mutation; the drift rule runs once, after the batch is in."""
        for nid, field in zip(nids, fields):
            self.store_field(nid, field)
        before, self._before = self._before, {}
        current = self.fields
        keys_of = self.keys_of
        inserts: list[tuple] = []
        deletes: list[tuple] = []
        changed = 0
        for nid, old in before.items():
            new = current.get(nid)
            if new == old:
                continue
            changed += 1
            old_keys = () if old is None else keys_of(old)
            new_keys = () if new is None else keys_of(new)
            deletes += [(key, nid) for key in old_keys if key not in new_keys]
            inserts += [(key, nid) for key in new_keys if key not in old_keys]
        if inserts or deletes:
            self.tree.apply(inserts, deletes)
        if changed:
            self._mutated(changed)

    def _mutated(self, count: int) -> None:
        """Count ``count`` stored-field changes.  The one drift rule:
        more than ``max(STATS_DRIFT_MIN, size / STATS_DRIFT_DENOMINATOR)``
        mutations after the tree's base run was built, the delta is
        folded into a new one.  Size and drift are both counted in
        stored fields, whatever number of keys each field holds."""
        self.mutations += count
        drift = self.mutations - self.folded_at
        if drift > STATS_DRIFT_MIN:
            if drift > len(self) // STATS_DRIFT_DENOMINATOR:
                self.tree.fold()
                self.folded_at = self.mutations

    def set_entry(self, nid: int, field: Any) -> None:
        """Insert or refresh one node's entry: a one-node batch."""
        self.set_entries((nid,), (field,))

    def remove_entry(self, nid: int) -> None:
        """Drop a node's entry (subtree deletion): a one-node batch."""
        self.set_entries((nid,), (None,))

    def remove_entries(self, nids: Iterable[int]) -> int:
        """Bulk :meth:`remove_entry` (document unload): pops the stored
        fields, then drops their keys with one mask over the tree's nid
        column instead of one descent per node.  Returns the number of
        entries removed."""
        fields = self.fields
        dropped = [nid for nid in nids if fields.pop(nid, None) is not None]
        if dropped:
            self.tree.remove_nids(dropped)
            self.mutations += len(dropped)
            self.folded_at = self.mutations
        return len(dropped)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def field_of(self, nid: int) -> Any:
        """Stored field of a node (:attr:`absent` if none)."""
        return self.fields.get(nid, self.absent)

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
