"""Shredded XML documents: pre/size/level columns with node accessors.

This is the reproduction's substitute for MonetDB/XQuery's relational
XML storage (paper Section 5): "a range encoding on the documents
nodes, similar to the pre-post encoding" that "permits efficient
depth-first traversal".  A document is a set of parallel columns
indexed by *pre* (depth-first rank):

* ``kind`` — node kind (document/element/text/attribute/comment/PI);
* ``size`` — number of descendants (subtree size excluding self);
* ``level`` — depth (document node at level 0);
* ``name_id`` — vocabulary id for elements, attributes and PI targets;
* ``text_id`` — text-heap slot for text/attribute/comment/PI content;
* ``nid`` — immutable store-wide node id (pre values shift under
  structural updates; nids never do, so indices key on nids);
* ``parent_nid`` — the parent's nid (splice-safe parent axis).

Attribute nodes live *in* the pre plane (as in BaseX), directly after
their owner element at ``level+1`` with ``size`` 0.  They are skipped
by the child/descendant axes and by string-value computation (XDM:
attributes are not children), but are indexed like any other node.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from ..errors import DocumentError
from .columns import DocColumns
from .mvcc import read_epoch
from .names import Vocabulary
from .parser import escape_attribute, escape_text

__all__ = ["Document", "DOC", "ELEM", "TEXT", "ATTR", "COMMENT", "PI", "KIND_NAMES"]

DOC = 0
ELEM = 1
TEXT = 2
ATTR = 3
COMMENT = 4
PI = 5

KIND_NAMES = ("document", "element", "text", "attribute", "comment", "pi")

#: Modelled per-node column bytes: kind 1 + size 4 + level 1 + name 4 +
#: text 4 + nid 4 + parent 4 (matching a compact columnar layout).
NODE_ROW_BYTES = 22


class Document:
    """One shredded document.  Construct via the shredder or Store."""

    def __init__(self, name: str, vocabulary: Vocabulary | None = None):
        self.name = name
        self.vocabulary = vocabulary or Vocabulary()
        self.kind: list[int] = []
        self.size: list[int] = []
        self.level: list[int] = []
        self.name_id: list[int] = []
        self.text_id: list[int] = []
        self.nid: list[int] = []
        self.parent_nid: list[int] = []
        self.texts: list[str] = []
        #: MVCC before-value overlay for the text heap; None until the
        #: concurrency controller activates it (see xmldb/mvcc.py).
        self.text_overlay = None
        self._nid_to_pre: dict[int, int] = {}
        #: Lazy nid-map maintenance: structural splices mark the map
        #: dirty instead of eagerly rebuilding the full dict; the next
        #: ``pre_of`` pays the rebuild once (see ``rebuild_nid_map``).
        self._nid_map_dirty = False
        #: Number of actual map rebuilds (observability for the lazy
        #: path; tests assert consecutive splices coalesce into one).
        self.nid_map_rebuilds = 0
        #: Cached :class:`~repro.xmldb.columns.DocColumns` snapshot;
        #: dropped by any structural change or rename.
        self._columns = None
        #: Bumped whenever the snapshot is dropped, so a store-wide
        #: view built over this document can tell it is stale.
        self.column_version = 0
        #: Serialized size of the source XML in bytes (set by the
        #: shredder); used for the paper's Table 1 "Size MB" column.
        self.source_bytes = 0
        #: Change stamp: set by the owning :class:`~repro.xmldb.store.Store`
        #: from its monotonic counter on registration and on every
        #: mutation, so equal stamps mean unchanged bytes (a checkpoint
        #: reuses the files of a document whose stamp it last wrote).
        self.stamp = 0

    # ------------------------------------------------------------------
    # Row building (shredder/update support)
    # ------------------------------------------------------------------

    def append_row(
        self,
        kind: int,
        level: int,
        nid: int,
        parent_nid: int,
        name_id: int = -1,
        text: str | None = None,
    ) -> int:
        """Append one node row; returns its pre value."""
        pre = len(self.kind)
        self.kind.append(kind)
        self.size.append(0)
        self.level.append(level)
        self.name_id.append(name_id)
        if text is None:
            self.text_id.append(-1)
        else:
            self.text_id.append(len(self.texts))
            self.texts.append(text)
        self.nid.append(nid)
        self.parent_nid.append(parent_nid)
        self._nid_to_pre[nid] = pre
        self._columns = None
        self.column_version += 1
        return pre

    def rebuild_nid_map(self) -> None:
        """Mark nid -> pre stale after a structural splice.

        The full dict rebuild is deferred to the next :meth:`pre_of`
        (lazy, dirty-flag), so a batch of consecutive splices pays one
        rebuild instead of one per splice.  Also drops the cached
        column snapshot — the pre plane shifted.
        """
        self._nid_map_dirty = True
        self.invalidate_columns()

    def _rebuild_nid_map_now(self) -> None:
        self._nid_to_pre = {nid: pre for pre, nid in enumerate(self.nid)}
        self._nid_map_dirty = False
        self.nid_map_rebuilds += 1

    def invalidate_columns(self) -> None:
        """Drop the cached column snapshot (non-splice mutations that
        still touch a structural column, e.g. rename)."""
        self._columns = None
        self.column_version += 1

    def columns(self) -> DocColumns:
        """Numpy snapshot of the structural columns (cached until the
        next structural change).  It keeps its own nid→pre map, so a
        stale ``pre_of`` dict stays stale until ``pre_of`` needs it."""
        columns = self._columns
        if columns is None:
            columns = DocColumns((self,))
            self._columns = columns
        return columns

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Number of nodes (including the document node and attributes)."""
        return len(self.kind)

    def pre_of(self, nid: int) -> int:
        """Pre rank of node ``nid``; raises on unknown ids."""
        if self._nid_map_dirty:
            self._rebuild_nid_map_now()
        pre = self._nid_to_pre.get(nid)
        if pre is None:
            raise DocumentError(f"unknown node id {nid} in document {self.name!r}")
        return pre

    def read_texts(self, slots: Sequence[int]) -> list[str]:
        """The text-heap values at ``slots``, as this thread's reader
        sees them: every text read of the document goes through here.

        The heap is read in one pass.  A reader pinned at an epoch (see
        :mod:`repro.xmldb.mvcc`) then re-resolves only the slots some
        writer has overwritten since its pin
        (:meth:`~repro.xmldb.mvcc.TextOverlay.rewind`); with no pinned
        epoch, or no versions in the overlay, the heap values stand.
        The order matters: a writer records a slot's before-value
        *before* it overwrites the slot, so whatever the heap pass read,
        the overlay check that follows it sees the record of any write
        that pass could have observed.
        """
        texts = self.texts
        values = [texts[slot] for slot in slots]
        overlay = self.text_overlay
        if overlay is not None and overlay.versions:
            epoch = read_epoch()
            if epoch is not None:
                overlay.rewind(slots, values, epoch)
        return values

    def text_of(self, pre: int) -> str:
        """Own text content of a text/attribute/comment/PI node (one
        :meth:`read_texts` slot)."""
        slot = self.text_id[pre]
        if slot < 0:
            raise DocumentError(f"node at pre {pre} has no text content")
        return self.read_texts((slot,))[0]

    def name_of(self, pre: int) -> str:
        """Element/attribute/PI name."""
        name_id = self.name_id[pre]
        if name_id < 0:
            raise DocumentError(f"node at pre {pre} has no name")
        return self.vocabulary.name_of(name_id)

    def children(self, pre: int) -> Iterator[int]:
        """Child pres (XDM child axis: attributes are skipped)."""
        end = pre + self.size[pre]
        child = pre + 1
        while child <= end:
            if self.kind[child] != ATTR:
                yield child
            child += self.size[child] + 1

    def children_and_attributes(self, pre: int) -> Iterator[int]:
        """All directly-contained rows, attributes included."""
        end = pre + self.size[pre]
        child = pre + 1
        while child <= end:
            yield child
            child += self.size[child] + 1

    def attributes(self, pre: int) -> Iterator[int]:
        """Attribute pres of an element."""
        end = pre + self.size[pre]
        child = pre + 1
        while child <= end and self.kind[child] == ATTR:
            yield child
            child += 1

    def parent(self, pre: int) -> int | None:
        """Parent pre, or None for the document node."""
        parent_nid = self.parent_nid[pre]
        if parent_nid < 0:
            return None
        return self.pre_of(parent_nid)

    def ancestors(self, pre: int) -> Iterator[int]:
        """Ancestor pres from parent up to the document node."""
        current = self.parent(pre)
        while current is not None:
            yield current
            current = self.parent(current)

    def descendants(self, pre: int) -> range:
        """Pre range of the subtree below ``pre`` (excluding it)."""
        return range(pre + 1, pre + self.size[pre] + 1)

    def subtree(self, pre: int) -> range:
        """Pre range of the subtree rooted at ``pre`` (including it)."""
        return range(pre, pre + self.size[pre] + 1)

    def root_element(self) -> int:
        """Pre of the root element."""
        for pre in self.children(0):
            if self.kind[pre] == ELEM:
                return pre
        raise DocumentError(f"document {self.name!r} has no root element")

    # ------------------------------------------------------------------
    # XDM string value
    # ------------------------------------------------------------------

    def string_value(self, pre: int) -> str:
        """XDM string value of a node.

        For document/element nodes this is the concatenation of all
        descendant *text* node values (paper Section 1); attributes,
        comments and PIs return their own content.
        """
        kind = self.kind[pre]
        if kind in (TEXT, ATTR, COMMENT, PI):
            return self.text_of(pre)
        kinds = self.kind
        text_id = self.text_id
        return "".join(self.read_texts([
            text_id[d] for d in self.descendants(pre) if kinds[d] == TEXT
        ]))

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def serialize(self, pre: int | None = None) -> str:
        """Serialise the subtree at ``pre`` (default: whole document)."""
        if pre is None:
            pre = 0
        out: list[str] = []
        self._serialize_into(pre, out)
        return "".join(out)

    def _serialize_into(self, pre: int, out: list[str]) -> None:
        kind = self.kind[pre]
        if kind == DOC:
            for child in self.children(pre):
                self._serialize_into(child, out)
            return
        if kind == TEXT:
            out.append(escape_text(self.text_of(pre)))
            return
        if kind == COMMENT:
            out.append(f"<!--{self.text_of(pre)}-->")
            return
        if kind == PI:
            data = self.text_of(pre)
            body = f"{self.name_of(pre)} {data}" if data else self.name_of(pre)
            out.append(f"<?{body}?>")
            return
        if kind == ATTR:
            raise DocumentError("attributes cannot be serialised standalone")
        name = self.name_of(pre)
        out.append(f"<{name}")
        children = []
        for child in self.children_and_attributes(pre):
            if self.kind[child] == ATTR:
                out.append(
                    f' {self.name_of(child)}="'
                    f'{escape_attribute(self.text_of(child))}"'
                )
            else:
                children.append(child)
        if not children:
            out.append("/>")
            return
        out.append(">")
        for child in children:
            self._serialize_into(child, out)
        out.append(f"</{name}>")

    # ------------------------------------------------------------------
    # Storage model
    # ------------------------------------------------------------------

    def byte_size(self) -> int:
        """Modelled database size of this document in bytes.

        Column rows plus the text heap (UTF-8 + 4-byte offsets) plus the
        name vocabulary — the quantity the paper's Figure 9 (bottom)
        normalises index sizes against.
        """
        heap = sum(len(t.encode("utf-8")) + 4 for t in self.texts)
        return len(self.kind) * NODE_ROW_BYTES + heap + self.vocabulary.byte_size()

    def check_invariants(self) -> None:
        """Validate pre/size/level consistency (test support)."""
        n = len(self.kind)
        assert n > 0 and self.kind[0] == DOC
        assert self.size[0] == n - 1
        for pre in range(n):
            end = pre + self.size[pre]
            assert end < n
            if pre > 0:
                parent = self.parent(pre)
                assert parent is not None
                assert self.level[pre] == self.level[parent] + 1
                assert parent < pre <= parent + self.size[parent]
            child_span = 0
            for child in self.children_and_attributes(pre):
                child_span += self.size[child] + 1
            assert child_span == self.size[pre]
        assert len({*self.nid}) == n
