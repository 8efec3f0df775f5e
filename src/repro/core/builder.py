"""Index creation — the skeleton algorithm of paper Figure 7.

One depth-first pass over the document computes the field (hash value
or FSM state/fragment) of **every** node, for **all** registered
indices simultaneously: "since all indices are independent of each
other, creating and updating multiple defined indices can be done
simultaneously with only one pass".

The pass walks pre order with an explicit stack of open containers;
text nodes evaluate ``H``/the FSM, and when a container closes its
accumulated field folds into its parent via ``C``/the SCT — exactly
the control flow of Figure 7, expressed over the pre/size columns.

Attribute nodes are indexed on their own value but do not contribute
to their element's string value (XDM); comments and PIs are not
indexed and contribute nothing.
"""

from __future__ import annotations

from typing import Sequence

from ..xmldb.document import ATTR, DOC, ELEM, TEXT, Document
from .value_index import ValueIndex

__all__ = ["build_document", "compute_fields"]


def compute_fields(
    doc: Document,
    start: int,
    end: int,
    indexes: Sequence[ValueIndex],
    bulk: bool,
) -> None:
    """Compute and store fields for all rows in ``[start, end]``.

    The range must cover complete subtrees (as pre ranges of siblings
    do).  With ``bulk`` the entries are staged for bulk-loading
    (creation); otherwise they go through ``set_entry`` (structural
    updates over freshly inserted subtrees).
    """
    kinds = doc.kind
    sizes = doc.size
    nids = doc.nid
    enter = [index.stage_entry if bulk else index.set_entry for index in indexes]
    k = len(indexes)
    # Pre-compute leaf fields in one batch per index (the string index
    # hashes all values vectorised, the typed index pre-classifies).
    leaf_pres = [
        pre
        for pre in range(start, end + 1)
        if kinds[pre] in (TEXT, ATTR)
    ]
    text_id = doc.text_id
    leaf_texts = doc.read_texts([text_id[pre] for pre in leaf_pres])
    leaf_fields: list[dict[int, object]] = [
        dict(zip(leaf_pres, index.field_of_texts(leaf_texts)))
        for index in indexes
    ]
    # Stack frames: (subtree_end_pre, nid, [accumulator per index]).
    # The bottom frame is a sentinel (nid None) that absorbs the
    # folds of the range's top-level subtrees.
    stack: list[tuple[int, int | None, list]] = [
        (end, None, [index.identity for index in indexes])
    ]
    pre = start
    while pre <= end or len(stack) > 1:
        # Close finished containers before (or after) advancing.
        while len(stack) > 1 and (pre > end or pre > stack[-1][0]):
            _closed_end, nid, fields = stack.pop()
            for i in range(k):
                enter[i](nid, fields[i])
            parent_fields = stack[-1][2]
            for i in range(k):
                parent_fields[i] = indexes[i].combine(
                    parent_fields[i], fields[i]
                )
        if pre > end:
            break
        kind = kinds[pre]
        if kind in (ELEM, DOC):
            stack.append(
                (pre + sizes[pre], nids[pre], [index.identity for index in indexes])
            )
        elif kind == TEXT:
            fields = stack[-1][2]
            for i in range(k):
                field = leaf_fields[i][pre]
                enter[i](nids[pre], field)
                fields[i] = indexes[i].combine(fields[i], field)
        elif kind == ATTR:
            # Indexed on its own value; no contribution to the parent.
            for i in range(k):
                enter[i](nids[pre], leaf_fields[i][pre])
        # COMMENT/PI: not indexed, nothing contributed.
        pre += 1


def build_document(doc: Document, indexes: Sequence[ValueIndex]) -> None:
    """Create all ``indexes`` over ``doc`` in a single pass (Figure 7)."""
    for index in indexes:
        index.begin_bulk()
    compute_fields(doc, 0, len(doc) - 1, indexes, bulk=True)
    for index in indexes:
        index.finish_bulk()
