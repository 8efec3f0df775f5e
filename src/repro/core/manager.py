"""The index manager: the library's main entry point.

Owns a :class:`~repro.xmldb.store.Store` plus the generic value indices
over it (one string equality index, any number of typed range indices,
optionally the substring index), keeps them consistent across document
loads and updates through the one protocol of
:class:`~repro.core.value_index.ValueIndex`, and exposes the lookup API
the query layer plans against.

Self-tuning by construction (paper Section 1): no paths, no types to
configure — every node of every document is covered.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Iterator

import re

import numpy as np

from ..errors import IndexError_
from ..obs import MetricsRegistry
from ..xmldb.columns import string_equal_pres
from ..xmldb.document import ATTR, TEXT, Document
from ..xmldb.store import Store, StructuralChange
from .builder import compute_fields
from .concurrency import ConcurrencyController, ReadView, active_view
from .string_index import StringIndex
from .substring_index import SubstringIndex
from .typed_index import TypedIndex
from .updater import apply_structural_change, apply_text_updates
from .value_index import ValueIndex

__all__ = ["IndexManager"]


class IndexManager:
    """Generic XML value indices over a document store.

    Args:
        store: The document store to index (a fresh one by default).
        string: Build the string equality index.
        typed: XML type names to build range indices for.
        substring: Build the q-gram substring index.
    """

    def __init__(
        self,
        store: Store | None = None,
        string: bool = True,
        typed: Iterable[str] = ("double",),
        substring: bool = False,
    ):
        self.store = store if store is not None else Store()
        self.string_index: StringIndex | None = StringIndex() if string else None
        self.typed_indexes: dict[str, TypedIndex] = {
            name: TypedIndex(name) for name in typed
        }
        self.substring_index: SubstringIndex | None = (
            SubstringIndex() if substring else None
        )
        self._statistics_cache: dict[str, object] = {}
        # (function, literal) -> (epoch key, nids): memoized contains/
        # regex results, valid for exactly one mutation epoch (pinned
        # views key on their own epoch, so concurrent readers at
        # different snapshots never share an entry).
        self._text_lookup_cache: dict[
            tuple[str, str], tuple[object, list[int]]
        ] = {}
        #: Runtime counters and timers (build/update/query/WAL paths).
        self.metrics = MetricsRegistry()
        #: Mutation epoch: bumped by every operation that changes what a
        #: query may return (loads, unloads, updates, new indices).  It
        #: names the MVCC snapshots readers pin and keys the text-lookup
        #: memo; plans key on :attr:`plan_generation` instead.
        self.epoch = 0
        #: Bumped by every operation that can change which plan is
        #: right: a change of the index set or of any document's
        #: structure, and any rebuild of an index's base run (after
        #: which the statistics plans are priced from are refreshed).
        #: A text update that folds no delta leaves it alone.
        self.plan_generation = 0
        # ``folded_at`` of every index when the generation last moved.
        self._folds: tuple[int, ...] = ()
        # (query text, mode) -> (plan generation, plan); owned by
        # repro.query.planner, stored here so it shares the manager's
        # lifetime and invalidation.
        self._plan_cache: dict[tuple, tuple[int, object]] = {}
        #: Guards plan-cache mutations (lookups stay lock-free).
        self._plan_lock = threading.Lock()
        #: Snapshot-isolated readers and serialized writers (see
        #: :mod:`repro.core.concurrency`); created last, so its first
        #: published snapshot covers the indices built above.
        self.concurrency = ConcurrencyController(self)

    def bump_epoch(self, structural: bool = False) -> None:
        """Advance the epoch after a change to what queries return.

        Cached plans survive it — a text update changes answers, not
        which plan is right — unless the change is ``structural`` (the
        index set or a document's structure) or some index has rebuilt
        its base run since the generation last moved; then
        :attr:`plan_generation` moves too.
        """
        self.epoch += 1
        folds = tuple(index.folded_at for index in self.indexes)
        if structural or folds != self._folds:
            self._folds = folds
            self.plan_generation += 1

    # ------------------------------------------------------------------
    # Concurrent serving
    # ------------------------------------------------------------------

    def read_view(self) -> ReadView:
        """A pinned snapshot view (context manager)."""
        return self.concurrency.read_view()

    def _exclusive(self, structural: bool = True):
        """Latch scope for structural changes.

        ``structural=False`` marks exclusive scopes that only *add*
        state (e.g. adopting a migrated document): existing documents'
        columns are untouched and every index publishes a new version
        beside the pinned ones, so session pins stay valid.
        """
        return self.concurrency.exclusive(structural=structural)

    @property
    def indexes(self) -> list[ValueIndex]:
        """All active indices: string first, then typed, then substring."""
        result: list[ValueIndex] = []
        if self.string_index is not None:
            result.append(self.string_index)
        result.extend(self.typed_indexes.values())
        if self.substring_index is not None:
            result.append(self.substring_index)
        return result

    def index(self, kind: str) -> ValueIndex:
        """The active index named ``kind`` (``"string"``, a typed-index
        name or ``"substring"``)."""
        for index in self.indexes:
            if index.kind == kind:
                return index
        raise IndexError_(
            f"no {kind!r} index; "
            f"available: {[index.kind for index in self.indexes]}"
        )

    def typed_index(self, type_name: str) -> TypedIndex:
        index = self.typed_indexes.get(type_name)
        if index is None:
            raise IndexError_(
                f"no typed index for {type_name!r}; "
                f"available: {sorted(self.typed_indexes)}"
            )
        return index

    def add_typed_index(self, type_name: str) -> TypedIndex:
        """Create (and build) an additional typed index."""
        if type_name in self.typed_indexes:
            raise IndexError_(f"typed index {type_name!r} already exists")
        with self._exclusive():
            index = TypedIndex(type_name)
            self.typed_indexes[type_name] = index
            self._bulk_build(self.store.documents.values(), [index])
        return index

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def _bulk_build(
        self, docs: Iterable[Document], indexes: list[ValueIndex]
    ) -> None:
        """Create ``indexes`` over ``docs``: stage every document's
        fields, then merge each index's staged columns once.  Callers hold the
        exclusive latch."""
        with self.metrics.timer("index.build").time():
            for index in indexes:
                index.begin_bulk()
            if indexes:
                for doc in docs:
                    compute_fields(doc, 0, len(doc) - 1, indexes, bulk=True)
            for index in indexes:
                index.finish_bulk()
        self.metrics.counter("index.builds").inc()
        self.bump_epoch(structural=True)

    def _build_document(self, doc: Document, structural: bool = True) -> None:
        with self._exclusive(structural=structural):
            self._bulk_build([doc], self.indexes)

    def load(self, name: str, xml: str) -> Document:
        """Shred a document and index it (shred + Figure 7 pass)."""
        doc = self.store.add_document(name, xml)
        self._build_document(doc)
        return doc

    def adopt_document(self, doc: Document) -> Document:
        """Index a document decoded from another engine's snapshot
        (shard migration import).

        The store keeps the incoming nids when possible (cluster
        shards mint from disjoint ranges, so node identity survives
        the move) and remaps only on collision; index fields are then
        recomputed with the ordinary Figure 7 pass — hashing and FSM
        typing are deterministic functions of the text, so the
        rebuilt entries match the source's exactly.

        Unlike :meth:`load` this build is *non-structural* for pinned
        readers: adopting only adds a document (no existing column is
        spliced, and ``finish_bulk`` publishes a new run version
        beside the pinned ones), so session pins opened before the
        import stay valid — a migration must not invalidate in-flight
        cluster views on the destination shard.
        """
        doc = self.store.adopt_document(doc)
        self._build_document(doc, structural=False)
        return doc

    def build_all(self) -> None:
        """(Re)build all indices over all documents already in the
        store; entries the documents already have are dropped first."""
        with self._exclusive():
            docs = list(self.store.documents.values())
            indexes = self.indexes
            for doc in docs:
                for index in indexes:
                    index.remove_entries(doc.nid)
            self._bulk_build(docs, indexes)

    def unload(self, name: str) -> None:
        """Drop a document and all its index entries (one bulk pass per
        index instead of one tree descent per node)."""
        with self._exclusive():
            doc = self.store.document(name)
            nids = doc.nid
            for index in self.indexes:
                index.remove_entries(nids)
            self.store.remove_document(name)
            self.bump_epoch(structural=True)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def update_text(self, nid: int, new_text: str) -> int:
        """Update one text/attribute node's value and maintain indices."""
        return self.update_texts([(nid, new_text)])

    def update_texts(self, updates: Iterable[tuple[int, str]]) -> int:
        """Batch text-value update (the paper's Figure 10 workload).

        Applies all store writes first, then runs one maintenance pass
        (Figure 8) over the distinct updated nodes, so shared ancestors
        recompute once.  Returns the number of recomputed entries.

        This is the MVCC path, whatever the configured indices: the
        writer holds the latch *shared* (readers keep running), records
        every overwritten text slot's before-value in the document
        overlay, and publishes a new snapshot of every index's run at
        the end.
        """
        indexes = self.indexes
        with self.concurrency.text_update() as write_epoch:
            nids: list[int] = []
            seen: set[int] = set()
            with self.metrics.timer("index.update").time():
                for nid, new_text in updates:
                    self._record_before_value(nid, write_epoch)
                    self.store.update_text(nid, new_text)
                    if nid not in seen:
                        seen.add(nid)
                        nids.append(nid)
                recomputed = apply_text_updates(self.store, nids, indexes)
            self.metrics.counter("index.updates").inc(len(nids))
            self.bump_epoch()
        return recomputed

    def _record_before_value(self, nid: int, write_epoch: int) -> None:
        """Save a text slot's current value to the MVCC overlay.

        Runs *before* the heap write, so a reader pinned below
        ``write_epoch`` always finds the old value — in the heap if it
        races ahead of the write, in the overlay after it.
        """
        doc, pre = self.store.node(nid)
        slot = doc.text_id[pre]
        if slot >= 0 and doc.text_overlay is not None:
            doc.text_overlay.record(slot, write_epoch, doc.texts[slot])

    def _apply_structural(self, splice) -> StructuralChange:
        """Run one store splice and maintain every index over it
        (stop-the-world: structural splices take the exclusive latch,
        see docs/concurrency.md)."""
        with self._exclusive():
            with self.metrics.timer("index.update").time():
                change = splice()
                apply_structural_change(self.store, change, self.indexes)
            self.metrics.counter("index.updates").inc()
            self.bump_epoch(structural=True)
        return change

    def delete_subtree(self, nid: int) -> StructuralChange:
        """Delete a subtree and maintain indices (stop-the-world)."""
        return self._apply_structural(lambda: self.store.delete_subtree(nid))

    def insert_xml(
        self, parent_nid: int, fragment: str, before_nid: int | None = None
    ) -> StructuralChange:
        """Insert an XML fragment and maintain indices (stop-the-world)."""
        return self._apply_structural(
            lambda: self.store.insert_xml(parent_nid, fragment, before_nid)
        )

    def insert_attribute(
        self, owner_nid: int, name: str, value: str
    ) -> StructuralChange:
        """Add an attribute to an element and index its value
        (stop-the-world)."""
        return self._apply_structural(
            lambda: self.store.insert_attribute(owner_nid, name, value)
        )

    def delete_attribute(self, attr_nid: int) -> StructuralChange:
        """Remove an attribute node and drop its index entries."""
        doc, pre = self.store.node(attr_nid)
        if doc.kind[pre] != ATTR:
            raise IndexError_(f"node {attr_nid} is not an attribute")
        return self.delete_subtree(attr_nid)

    def rename(self, nid: int, new_name: str) -> None:
        """Rename an element/attribute/PI — no index maintenance needed
        (the generic indices are name-agnostic by design)."""
        with self._exclusive():
            self.store.rename(nid, new_name)
            # A rename can change which nodes a name test selects.
            self.bump_epoch(structural=True)

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def lookup_string(self, value: str) -> Iterator[int]:
        """nids whose XDM string value equals ``value``, ascending.

        The hash bucket of ``value`` is verified against the store
        view by the executor's own batch check
        (:func:`~repro.xmldb.columns.string_equal_pres`), which drops
        the hash collisions; ``string_index.candidates`` is the
        unverified bucket.
        """
        if self.string_index is None:
            raise IndexError_("string index not enabled")
        cols = self.store.columns()
        pres = string_equal_pres(
            cols, self.string_index.candidate_nids(value), value
        )
        return iter(np.sort(cols.nid[pres]).tolist())

    def lookup_typed_equal(self, type_name: str, value: Any) -> Iterator[int]:
        """nids whose typed value equals ``value`` (exact, no verify)."""
        return self.typed_index(type_name).lookup_equal(value)

    def lookup_typed_range(
        self,
        type_name: str,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[tuple[Any, int]]:
        """(value, nid) pairs in the given typed-value interval."""
        return self.typed_index(type_name).lookup_range(
            low, high, include_low=include_low, include_high=include_high
        )

    def lookup_typed_range_nids(
        self,
        type_name: str,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> "np.ndarray":
        """Batched :meth:`lookup_typed_range` returning just the nids:
        an int64 array in no particular order (a slice of the index's
        nid column, no per-entry Python objects)."""
        return self.typed_index(type_name).range_nids(
            low, high, include_low=include_low, include_high=include_high
        )

    def lookup_typed_top(
        self, type_name: str, k: int, largest: bool = True
    ) -> list[tuple[Any, int]]:
        """The k largest (or smallest) typed values with their nodes."""
        return self.typed_index(type_name).top_values(k, largest=largest)

    def _text_lookup(self, function: str, literal: str, prune,
                     matches) -> Iterator[int]:
        """Ascending nids of the value leaves whose own text passes
        ``matches`` — a function from a list of texts to the indices of
        those that pass.

        ``prune(substring_index)`` gives the candidate nids (any
        order) when the substring index can narrow the leaves; without
        candidates every TEXT and ATTR row of the store view is
        checked.  The texts are read with one batch read per document
        segment, as the reader sees them.  Results are memoized per
        ``(function, literal)`` for one epoch: the pinned view's inside
        a read view, else the live mutation epoch (bumped by every
        result-changing operation), so readers at different snapshots
        never share an entry.
        """
        view = active_view()
        epoch = (("view", view.epoch)
                 if view is not None and view.epoch is not None
                 else ("live", self.epoch))
        cache = self._text_lookup_cache
        entry = cache.get((function, literal))
        if entry is not None and entry[0] == epoch:
            self.metrics.counter("query.text_lookup.cache_hits").inc()
            return iter(entry[1])
        candidates = None
        if self.substring_index is not None:
            candidates = prune(self.substring_index)
        cols = self.store.columns()
        if candidates is None:
            pres = np.flatnonzero((cols.kind == TEXT) | (cols.kind == ATTR))
        else:
            pres = cols.pres_of_nids(candidates)
        slots = cols.text_id[pres].tolist()
        hits: list[int] = []
        for doc, _offset, segment in cols.segments(pres):
            rows = pres[segment]
            hits += rows[matches(doc.read_texts(slots[segment]))].tolist()
        nids = np.sort(cols.nid[hits]).tolist()
        if len(cache) >= 128:
            cache.clear()
        cache[(function, literal)] = (epoch, nids)
        return iter(nids)

    def lookup_contains(self, needle: str) -> Iterator[int]:
        """Value-leaf nids whose own text contains ``needle``, ascending
        and exact.  The q-gram substring index prunes when it can
        (needle at least ``q`` long); every text is checked by the
        joined-region ``contains`` kernel.  Memoized per epoch
        (repeated substring queries on an unchanged database are
        answered from the cache)."""
        from .classify import containing_indices

        def matches(texts: list[str]) -> list[int]:
            found = containing_indices(texts, needle)
            if found is None:
                found = [i for i, text in enumerate(texts) if needle in text]
            return found

        return self._text_lookup("contains", needle,
                                 lambda index: index.candidates(needle),
                                 matches)

    def lookup_regex(self, pattern: str) -> Iterator[int]:
        """Value-leaf nids whose own text matches ``pattern`` (search
        semantics), ascending.  Mandatory literal factors of the
        pattern prune through the substring index when possible.
        Memoized per epoch.  (Regex search stays per text: a
        joined-region scan would be unsound — anchors, ``.`` and
        quantifiers can straddle the sentinel.)"""
        search = re.compile(pattern).search

        def matches(texts: list[str]) -> list[int]:
            return [i for i, text in enumerate(texts) if search(text)]

        return self._text_lookup(
            "regex", pattern,
            lambda index: index.candidates_for_regex(pattern), matches)

    # ------------------------------------------------------------------
    # Planner statistics
    # ------------------------------------------------------------------

    def statistics(self, kind: str):
        """Selectivity statistics for one index (cached snapshots).

        ``kind`` is ``"string"`` or a typed-index name.  A snapshot is
        recomputed once the index has rebuilt its base run since it
        was taken — the drift rule of
        :meth:`~repro.core.value_index.ValueIndex._mutated`, a bulk
        build or an unload — so it is read off columns that are
        already merged, at most a small delta behind.

        Pinned, as-of and live readers all price from this one
        snapshot: estimates only choose between correct plans, so a
        view's answers stay pinned whatever distribution priced them.
        """
        index = self.index(kind)
        cached = self._statistics_cache.get(kind)
        if cached is not None and cached.mutations >= index.folded_at:
            self.metrics.counter("statistics.cached").inc()
            return cached
        with self.metrics.timer("statistics.refresh").time():
            snapshot = index.statistics_type.from_tree(
                index.tree, index.mutations
            )
        self.metrics.counter("statistics.refreshes").inc()
        self._statistics_cache[kind] = snapshot
        return snapshot

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def index_sizes(self) -> dict[str, int]:
        """Modelled byte size per index (Figure 9 bottom)."""
        return {index.kind: index.byte_size() for index in self.indexes}

    def check_consistency(self) -> None:
        """Verify all index fields against freshly computed ones.

        Test support: rebuilds every index from scratch and compares
        stored fields and key entries.
        """
        rebuilt = IndexManager(
            store=self.store,
            string=self.string_index is not None,
            typed=tuple(self.typed_indexes),
            substring=self.substring_index is not None,
        )
        rebuilt.build_all()
        for index, fresh in zip(self.indexes, rebuilt.indexes):
            assert index.fields == fresh.fields, index.kind
            assert list(index.entries()) == list(fresh.entries()), index.kind
