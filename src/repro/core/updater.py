"""Index maintenance — the skeleton algorithm of paper Figure 8.

Text-value updates re-evaluate ``H``/the FSM **only** for the updated
text nodes; every affected ancestor is then recomputed by folding the
*stored* fields of its immediate children with ``C``/the SCT — "the
hash values of all ancestors of the updated node are reconstructed by
visiting only the siblings and reading their hash values, as opposed
to reconstructing their string values".

Structural updates (subtree insertion/deletion) drop/compute fields for
the spliced rows and then run the same ancestor recomputation from the
splice parent upwards (Section 5, last paragraph).

Every new field is stored at once (:meth:`ValueIndex.store_field`),
because the deepest-first fold reads the fields it just wrote; each
index's run then takes the whole update as one batch
(:meth:`ValueIndex.set_entries`) — Figure 8's ``depth+1`` entries per
index in one write.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..xmldb.document import COMMENT, ELEM, PI, TEXT, Document
from ..xmldb.store import Store, StructuralChange
from .builder import compute_fields
from .value_index import ValueIndex

__all__ = ["apply_text_updates", "apply_structural_change", "recompute_ancestors"]


def _recompute_node(doc: Document, pre: int, indexes: Sequence[ValueIndex]) -> None:
    """Fold the stored fields of ``pre``'s children into a new field.

    This is Figure 8's "recomputed across all its immediate children"
    (lines 14-16/19-21): one stored-field read per child, no document
    text access.
    """
    kinds = doc.kind
    nids = doc.nid
    fields = [index.identity for index in indexes]
    for child in doc.children(pre):
        kind = kinds[child]
        if kind in (ELEM, TEXT):
            child_nid = nids[child]
            for i, index in enumerate(indexes):
                fields[i] = index.combine(fields[i], index.field_of(child_nid))
    for i, index in enumerate(indexes):
        index.store_field(nids[pre], fields[i])


def recompute_ancestors(
    store: Store,
    dirty: Iterable[tuple[Document, int]],
    indexes: Sequence[ValueIndex],
) -> int:
    """Recompute fields for a set of (document, ancestor-pre) pairs.

    Ancestors are processed deepest level first so every recomputation
    reads already-refreshed child fields.  The fields are stored, and
    the runs follow at the caller's ``set_entries``.  Returns the
    number of nodes recomputed (update-cost metric for the benchmarks).
    """
    ordered = sorted(dirty, key=lambda item: item[0].level[item[1]], reverse=True)
    for doc, pre in ordered:
        _recompute_node(doc, pre, indexes)
    return len(ordered)


def _collect_ancestors(
    doc: Document, pre: int, seen: set[int], dirty: list[tuple[Document, int]]
) -> None:
    """Walk the parent chain, stopping at already-collected ancestors."""
    parent_nid = doc.parent_nid[pre]
    while parent_nid >= 0 and parent_nid not in seen:
        seen.add(parent_nid)
        parent_pre = doc.pre_of(parent_nid)
        dirty.append((doc, parent_pre))
        parent_nid = doc.parent_nid[parent_pre]


def apply_text_updates(
    store: Store,
    nids: Iterable[int],
    indexes: Sequence[ValueIndex],
) -> int:
    """Refresh all indices after text-value updates of ``nids``.

    The new values must already be in the store (see
    :meth:`repro.xmldb.store.Store.update_text`).  Returns the total
    number of index-entry recomputations (leaves + ancestors).
    """
    seen: set[int] = set()
    dirty: list[tuple[Document, int]] = []
    touched = 0
    for nid in nids:
        doc, pre = store.node(nid)
        kind = doc.kind[pre]
        if kind in (COMMENT, PI):
            continue  # not indexed
        text = doc.text_of(pre)
        for index in indexes:
            index.store_field(nid, index.field_of_text(text))
        touched += 1
        if kind == TEXT:
            # Attribute values never influence ancestors (XDM).
            _collect_ancestors(doc, pre, seen, dirty)
    touched += recompute_ancestors(store, dirty, indexes)
    for index in indexes:
        index.set_entries()
    return touched


def apply_structural_change(
    store: Store,
    change: StructuralChange,
    indexes: Sequence[ValueIndex],
) -> int:
    """Refresh all indices after a subtree insertion or deletion: the
    spliced rows, the splice parent and its ancestors are one batch per
    index."""
    for nid in change.removed_nids:
        for index in indexes:
            index.store_field(nid, None)
    doc = change.document
    if change.added_nids:
        # The spliced rows are contiguous and form complete subtrees.
        first = doc.pre_of(change.added_nids[0])
        last = doc.pre_of(change.added_nids[-1])
        compute_fields(doc, first, last, indexes, bulk=False)
    # Recompute the splice parent and its ancestors.
    seen: set[int] = set()
    dirty: list[tuple[Document, int]] = []
    parent_pre = doc.pre_of(change.parent_nid)
    seen.add(change.parent_nid)
    dirty.append((doc, parent_pre))
    _collect_ancestors(doc, parent_pre, seen, dirty)
    recomputed = recompute_ancestors(store, dirty, indexes)
    for index in indexes:
        index.set_entries()
    return len(change.removed_nids) + len(change.added_nids) + recomputed
