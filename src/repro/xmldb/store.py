"""The document store: multiple documents, node ids, and updates.

The store owns the node-id space (nids are immutable surrogates;
``pre`` ranks shift under structural updates) and implements the three
update primitives the paper's maintenance algorithms cover:

* text-value updates (the Figure 10 workload),
* subtree deletion and subtree insertion (Section 5, last paragraph:
  "in the case of a node or subtree deletion ... the algorithm gets as
  input the node that served as the root of the subtree").

Structural updates splice the pre/size/level columns, mirroring the
pre/post-plane updates of MonetDB/XQuery.
"""

from __future__ import annotations

import itertools
import os
from typing import Iterator

from ..errors import DocumentError
from .columns import DocColumns
from .document import ATTR, COMMENT, DOC, ELEM, PI, TEXT, Document
from .parser import parse_events, parse_stream
from .shredder import shred, shred_events

__all__ = ["Store", "StructuralChange"]


class StructuralChange:
    """Result of a structural update, consumed by index maintenance.

    Attributes:
        document: The document that changed.
        parent_nid: Parent of the spliced subtree (the node whose value
            recomputation must start, per the paper's update algorithm).
        removed_nids: nids whose index entries must be dropped.
        added_nids: nids that need fresh index entries.
    """

    def __init__(
        self,
        document: Document,
        parent_nid: int,
        removed_nids: list[int],
        added_nids: list[int],
    ):
        self.document = document
        self.parent_nid = parent_nid
        self.removed_nids = removed_nids
        self.added_nids = added_nids


class Store:
    """A collection of shredded documents sharing one nid space."""

    def __init__(self) -> None:
        self.documents: dict[str, Document] = {}
        self._next_nid = 0
        self._doc_of_nid: dict[int, Document] = {}
        # Source of every document's change stamp (``Document.stamp``):
        # strictly increasing across the store, so a document reloaded
        # under a reused name never repeats an earlier stamp.
        self._stamps = itertools.count(1)
        #: The cached store-wide column view (see :meth:`columns`).
        self._columns: DocColumns | None = None

    def _touch(self, doc: Document) -> None:
        """Give ``doc`` a fresh change stamp (it was registered or
        mutated)."""
        doc.stamp = next(self._stamps)

    # ------------------------------------------------------------------
    # Node-id plumbing
    # ------------------------------------------------------------------

    def allocate_nid(self) -> int:
        # Skip over live nids: adopted documents (shard migration)
        # keep their original ids, which may sit above the counter.
        nid = self._next_nid
        while nid in self._doc_of_nid:
            nid += 1
        self._next_nid = nid + 1
        return nid

    def reserve_nids(self, base: int) -> None:
        """Start allocating at ``base`` (or above, if already past).

        A shard cluster gives every shard a disjoint nid range so a
        document's node ids survive migration unchanged — no two
        engines ever mint the same id.
        """
        self._next_nid = max(self._next_nid, base)

    def node(self, nid: int) -> tuple[Document, int]:
        """Resolve a nid to ``(document, pre)``."""
        doc = self._doc_of_nid.get(nid)
        if doc is None:
            raise DocumentError(f"unknown node id {nid}")
        return doc, doc.pre_of(nid)

    def nids(self) -> Iterator[int]:
        """All live nids, in document order per document."""
        for doc in self.documents.values():
            yield from doc.nid

    # ------------------------------------------------------------------
    # Document management
    # ------------------------------------------------------------------

    def add_document(self, name: str, xml: str) -> Document:
        """Shred serialized XML into the store."""
        if name in self.documents:
            raise DocumentError(f"document {name!r} already exists")
        doc = shred(name, xml, self.allocate_nid)
        self._register(doc)
        return doc

    def add_document_file(self, name: str, path: str) -> Document:
        """Shred an XML file read in chunks (constant parse memory; the
        column store itself is in memory)."""
        with open(path, encoding="utf-8") as fh:
            doc = self.add_document_events(name, parse_stream(fh))
        doc.source_bytes = os.path.getsize(path)
        return doc

    def add_document_events(self, name: str, events) -> Document:
        """Shred a pre-parsed event stream (generator workloads)."""
        if name in self.documents:
            raise DocumentError(f"document {name!r} already exists")
        doc = shred_events(name, events, self.allocate_nid)
        self._register(doc)
        return doc

    def adopt_document(self, doc: Document) -> Document:
        """Register a document decoded from *another* engine's nid
        space (shard migration import).

        The incoming nids are kept whenever none collides with a live
        nid here — in a cluster, shard nid ranges are disjoint
        (:meth:`reserve_nids`), so node identity survives migration
        and clients may keep using ids they learned before the move.
        On a collision (engines sharing a range) every node is
        remapped through this store's allocator instead; pre order —
        and with it every pre-addressed column and all query results —
        is untouched either way.
        """
        if doc.name in self.documents:
            raise DocumentError(f"document {doc.name!r} already exists")
        if any(nid in self._doc_of_nid for nid in doc.nid):
            mapping = {old: self.allocate_nid() for old in doc.nid}
            doc.nid = [mapping[old] for old in doc.nid]
            doc.parent_nid = [
                mapping[p] if p >= 0 else p for p in doc.parent_nid
            ]
            doc.rebuild_nid_map()
        self._register(doc)
        return doc

    def _register(self, doc: Document) -> None:
        self._touch(doc)
        self.documents[doc.name] = doc
        for nid in doc.nid:
            self._doc_of_nid[nid] = doc

    def document(self, name: str) -> Document:
        doc = self.documents.get(name)
        if doc is None:
            raise DocumentError(f"no document named {name!r}")
        return doc

    def columns(self) -> DocColumns:
        """The column view over every document, in store order: what an
        unscoped query runs its one pipeline over.

        Cached until a load, unload or reload changes the set of
        documents, or a splice or rename moves one document's
        ``column_version`` (text-value updates keep it); a store of one
        document is that document's own view.
        """
        docs = tuple(self.documents.values())
        if len(docs) == 1:
            return docs[0].columns()
        view = self._columns
        if (
            view is None
            or view.docs != docs
            or view.versions != tuple(doc.column_version for doc in docs)
        ):
            view = self._columns = DocColumns(docs)
        return view

    def remove_document(self, name: str) -> None:
        doc = self.documents.pop(name, None)
        if doc is None:
            raise DocumentError(f"no document named {name!r}")
        for nid in doc.nid:
            self._doc_of_nid.pop(nid, None)

    # ------------------------------------------------------------------
    # Value updates
    # ------------------------------------------------------------------

    def update_text(self, nid: int, new_text: str) -> None:
        """Replace the text content of a text/attribute/comment/PI node."""
        doc, pre = self.node(nid)
        if doc.kind[pre] not in (TEXT, ATTR, COMMENT, PI):
            raise DocumentError(
                f"node {nid} is a {doc.kind[pre]}-kind node, not text-valued"
            )
        doc.texts[doc.text_id[pre]] = new_text
        self._touch(doc)

    def rename(self, nid: int, new_name: str) -> None:
        """Rename an element, attribute or PI target.

        Value indices are unaffected: names are not values (the paper's
        indices are path- and name-agnostic).
        """
        doc, pre = self.node(nid)
        if doc.kind[pre] not in (ELEM, ATTR, PI):
            raise DocumentError(f"node {nid} has no name to change")
        doc.name_id[pre] = doc.vocabulary.intern(new_name)
        doc.invalidate_columns()
        self._touch(doc)

    # ------------------------------------------------------------------
    # Structural updates
    # ------------------------------------------------------------------

    def insert_attribute(
        self, owner_nid: int, name: str, value: str
    ) -> StructuralChange:
        """Add an attribute to an element (after its existing ones)."""
        doc, owner_pre = self.node(owner_nid)
        if doc.kind[owner_pre] != ELEM:
            raise DocumentError("attributes can only be added to elements")
        for attr in doc.attributes(owner_pre):
            if doc.name_of(attr) == name:
                raise DocumentError(
                    f"element already has an attribute {name!r}"
                )
        at = owner_pre + 1
        while at < len(doc) and doc.kind[at] == ATTR and doc.parent_nid[at] == owner_nid:
            at += 1
        nid = self.allocate_nid()
        doc.kind.insert(at, ATTR)
        doc.size.insert(at, 0)
        doc.level.insert(at, doc.level[owner_pre] + 1)
        doc.name_id.insert(at, doc.vocabulary.intern(name))
        doc.text_id.insert(at, len(doc.texts))
        doc.texts.append(value)
        doc.nid.insert(at, nid)
        doc.parent_nid.insert(at, owner_nid)
        doc.rebuild_nid_map()
        doc.size[doc.pre_of(owner_nid)] += 1
        for ancestor in doc.ancestors(doc.pre_of(owner_nid)):
            doc.size[ancestor] += 1
        self._doc_of_nid[nid] = doc
        self._touch(doc)
        return StructuralChange(doc, owner_nid, [], [nid])

    def delete_subtree(self, nid: int) -> StructuralChange:
        """Remove the subtree rooted at ``nid`` (not the document node)."""
        doc, pre = self.node(nid)
        if doc.kind[pre] == DOC:
            raise DocumentError("cannot delete the document node")
        count = doc.size[pre] + 1
        removed = doc.nid[pre : pre + count]
        parent_nid = doc.parent_nid[pre]
        for ancestor in doc.ancestors(pre):
            doc.size[ancestor] -= count
        for column in (
            doc.kind,
            doc.size,
            doc.level,
            doc.name_id,
            doc.text_id,
            doc.nid,
            doc.parent_nid,
        ):
            del column[pre : pre + count]
        doc.rebuild_nid_map()
        for gone in removed:
            self._doc_of_nid.pop(gone, None)
        self._touch(doc)
        return StructuralChange(doc, parent_nid, list(removed), [])

    def insert_xml(
        self, parent_nid: int, fragment: str, before_nid: int | None = None
    ) -> StructuralChange:
        """Insert a parsed XML ``fragment`` under ``parent_nid``.

        The fragment may contain any mix of elements and text.  It is
        inserted as the last children of the parent, or immediately
        before sibling ``before_nid``.
        """
        doc, parent_pre = self.node(parent_nid)
        if doc.kind[parent_pre] not in (DOC, ELEM):
            raise DocumentError("can only insert under document or element nodes")
        # Shred the fragment in isolation (wrapped, so bare text works).
        scratch = shred_events(
            "<fragment>",
            _strip_wrapper(parse_events(f"<w>{fragment}</w>")),
            self.allocate_nid,
        )
        insert_rows = len(scratch) - 1  # minus the scratch doc node
        if insert_rows == 0:
            return StructuralChange(doc, parent_nid, [], [])
        if before_nid is None:
            at = parent_pre + doc.size[parent_pre] + 1
        else:
            at = doc.pre_of(before_nid)
            if doc.kind[at] == ATTR:
                raise DocumentError(
                    "cannot insert children before an attribute node"
                )
            sibling_parent = doc.parent_nid[at]
            if sibling_parent != parent_nid:
                raise DocumentError("before_nid is not a child of parent_nid")
        base_level = doc.level[parent_pre] + 1
        added = scratch.nid[1:]
        # Splice the scratch rows (skipping its document node) into the
        # target columns, re-basing levels and re-rooting parents.
        new_parent = [
            parent_nid if p == scratch.nid[0] else p
            for p in scratch.parent_nid[1:]
        ]
        new_text_id = []
        for slot in scratch.text_id[1:]:
            if slot < 0:
                new_text_id.append(-1)
            else:
                new_text_id.append(len(doc.texts))
                doc.texts.append(scratch.texts[slot])
        new_name_id = [
            -1 if n < 0 else doc.vocabulary.intern(scratch.vocabulary.name_of(n))
            for n in scratch.name_id[1:]
        ]
        new_level = [lvl - 1 + base_level for lvl in scratch.level[1:]]
        doc.kind[at:at] = scratch.kind[1:]
        doc.size[at:at] = scratch.size[1:]
        doc.level[at:at] = new_level
        doc.name_id[at:at] = new_name_id
        doc.text_id[at:at] = new_text_id
        doc.nid[at:at] = added
        doc.parent_nid[at:at] = new_parent
        doc.rebuild_nid_map()
        doc.size[doc.pre_of(parent_nid)] += insert_rows
        for ancestor in doc.ancestors(doc.pre_of(parent_nid)):
            doc.size[ancestor] += insert_rows
        for nid in added:
            self._doc_of_nid[nid] = doc
        self._touch(doc)
        return StructuralChange(doc, parent_nid, [], list(added))

    # ------------------------------------------------------------------
    # Storage model
    # ------------------------------------------------------------------

    def byte_size(self) -> int:
        """Modelled database size across all documents."""
        return sum(doc.byte_size() for doc in self.documents.values())

    def total_nodes(self) -> int:
        return sum(len(doc) for doc in self.documents.values())


def _strip_wrapper(events):
    """Drop the outermost start/end pair of a wrapped fragment."""
    events = iter(events)
    first = next(events)
    assert first[0] == "start"
    previous = None
    for event in events:
        if previous is not None:
            yield previous
        previous = event
    assert previous == ("end", "w")
