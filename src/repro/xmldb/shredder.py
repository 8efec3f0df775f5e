"""Shredding: XML text -> pre/size/level document columns.

The paper measures index creation "during shredding, that is when the
document is processed and stored in the database" (Section 6).  This
module is that baseline step: parse the serialized document and fill
the columnar node table.  Index creation is a separate pass so the two
can be timed apart, exactly as Figure 9 reports them.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .document import ATTR, COMMENT, DOC, ELEM, PI, TEXT, Document
from .parser import parse_events

__all__ = ["shred", "shred_events"]


def shred_events(
    name: str,
    events: Iterable[tuple],
    allocate_nid: Callable[[], int],
) -> Document:
    """Build a :class:`Document` from a parser event stream.

    ``allocate_nid`` supplies store-wide immutable node ids.  The
    parser joins adjacent character data (text + CDATA) into one
    ``text`` event, so each becomes one text node, matching the XDM
    requirement that no two text siblings are adjacent.
    """
    doc = Document(name)
    root_nid = allocate_nid()
    doc.append_row(DOC, level=0, nid=root_nid, parent_nid=-1)
    # Stack of (pre, nid) of open containers; starts at the doc node.
    stack: list[tuple[int, int]] = [(0, root_nid)]
    for event in events:
        tag = event[0]
        if tag == "text":
            doc.append_row(
                TEXT,
                level=len(stack),
                nid=allocate_nid(),
                parent_nid=stack[-1][1],
                text=event[1],
            )
        elif tag == "start":
            _name, attributes = event[1], event[2]
            nid = allocate_nid()
            pre = doc.append_row(
                ELEM,
                level=len(stack),
                nid=nid,
                parent_nid=stack[-1][1],
                name_id=doc.vocabulary.intern(_name),
            )
            for attr_name, attr_value in attributes:
                doc.append_row(
                    ATTR,
                    level=len(stack) + 1,
                    nid=allocate_nid(),
                    parent_nid=nid,
                    name_id=doc.vocabulary.intern(attr_name),
                    text=attr_value,
                )
            stack.append((pre, nid))
        elif tag == "end":
            pre, _nid = stack.pop()
            doc.size[pre] = len(doc) - pre - 1
        elif tag == "comment":
            doc.append_row(
                COMMENT,
                level=len(stack),
                nid=allocate_nid(),
                parent_nid=stack[-1][1],
                text=event[1],
            )
        elif tag == "pi":
            doc.append_row(
                PI,
                level=len(stack),
                nid=allocate_nid(),
                parent_nid=stack[-1][1],
                name_id=doc.vocabulary.intern(event[1]),
                text=event[2],
            )
        else:  # pragma: no cover - parser yields no other tags
            raise ValueError(f"unknown event {tag!r}")
    doc.size[0] = len(doc) - 1
    return doc


def shred(name: str, xml: str, allocate_nid: Callable[[], int]) -> Document:
    """Parse and shred serialized XML into a document."""
    doc = shred_events(name, parse_events(xml), allocate_nid)
    doc.source_bytes = len(xml.encode("utf-8"))
    return doc
