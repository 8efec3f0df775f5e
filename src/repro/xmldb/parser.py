"""A from-scratch, non-validating XML 1.0 parser.

Produces a flat event stream (start/text/end/comment/pi) that the
shredder consumes.  Supports elements, attributes, character data,
CDATA sections, comments, processing instructions, the XML declaration,
DOCTYPE with general-entity declarations in an internal subset, the
five predefined entities and numeric character references.

The subset is deliberate: it covers everything the paper's document
corpora contain while keeping the hot path (text and tags) simple.
Line ends are normalised as XML 1.0 §2.11 prescribes (``\r\n`` and a
lone ``\r`` read as ``\n``) and attribute values as §3.3.3 does for
CDATA attributes (each literal tab or line end reads as a space;
character references are kept), so a document yields the same values
whether it arrives as a string or through a text-mode file.

There is one scanner, :class:`StreamingParser`.  It resumes wherever a
chunk ends mid-token; :func:`parse_events` runs it once over a whole
string and :func:`parse_stream` feeds it from a file handle.
"""

from __future__ import annotations

import re
from typing import IO, Iterator

from ..errors import XmlSyntaxError

__all__ = [
    "StreamingParser",
    "parse_events",
    "parse_stream",
    "unescape",
    "escape_text",
    "escape_attribute",
]

#: Read size for :func:`parse_stream`.
CHUNK_SIZE = 64 * 1024

_PREDEFINED = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "apos": "'",
    "quot": '"',
}

_NAME_FORBIDDEN = set(' \t\n\r<>&"\'=/?!')

#: Attribute-value normalisation of literal white space (§3.3.3).
_ATTRIBUTE_SPACE = str.maketrans("\t\n\r", "   ")


def _normalise_line_ends(text: str) -> str:
    if "\r" not in text:
        return text
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _is_name(token: str) -> bool:
    if not token:
        return False
    if token[0].isdigit() or token[0] in ".-":
        return False
    return not any(ch in _NAME_FORBIDDEN for ch in token)


def _line_of(xml: str, pos: int) -> int:
    return xml.count("\n", 0, pos) + 1


def _error(xml: str, pos: int, message: str) -> XmlSyntaxError:
    return XmlSyntaxError(message, position=pos, line=_line_of(xml, pos))


def unescape(
    xml: str, text: str, pos: int = 0, entities: dict[str, str] | None = None
) -> str:
    """Resolve entity and character references in ``text``.

    ``entities`` extends the five predefined entities with declarations
    from the document's internal DTD subset.
    """
    if "&" not in text:
        return text
    parts = []
    i = 0
    while True:
        amp = text.find("&", i)
        if amp == -1:
            parts.append(text[i:])
            return "".join(parts)
        parts.append(text[i:amp])
        end = text.find(";", amp + 1)
        if end == -1 or end - amp > 40:
            raise _error(xml, pos + amp, "unterminated entity reference")
        name = text[amp + 1 : end]
        if name.startswith("#x") or name.startswith("#X"):
            try:
                parts.append(chr(int(name[2:], 16)))
            except (ValueError, OverflowError):
                raise _error(xml, pos + amp, f"bad character reference &{name};")
        elif name.startswith("#"):
            try:
                parts.append(chr(int(name[1:])))
            except (ValueError, OverflowError):
                raise _error(xml, pos + amp, f"bad character reference &{name};")
        else:
            expansion = _PREDEFINED.get(name)
            if expansion is None and entities is not None:
                expansion = entities.get(name)
            if expansion is None:
                raise _error(xml, pos + amp, f"unknown entity &{name};")
            parts.append(expansion)
        i = end + 1


_ENTITY_DECL = re.compile(
    r"<!ENTITY\s+(?!%)([^\s%]+)\s+(\"([^\"]*)\"|'([^']*)')", re.DOTALL
)


def _parse_internal_subset(xml: str, start: int, end: int) -> dict[str, str]:
    """Extract general-entity declarations from an internal DTD subset.

    Parameter entities, external identifiers and everything else in
    the subset are skipped.  Entity values may reference previously
    declared entities and character references; they expand at
    declaration time, as the XML spec prescribes for included entities.
    """
    entities: dict[str, str] = {}
    for match in _ENTITY_DECL.finditer(xml, start, end):
        name = match.group(1)
        raw = match.group(3) if match.group(3) is not None else match.group(4)
        entities[name] = unescape(xml, raw, match.start(), entities)
    return entities


def escape_text(text: str) -> str:
    """Escape character data for serialisation."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def escape_attribute(value: str) -> str:
    """Escape an attribute value for serialisation in double quotes."""
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace('"', "&quot;")
    )


def _parse_attributes(
    xml: str, start: int, end: int, entities: dict[str, str] | None = None
) -> list[tuple[str, str]]:
    """Parse ``name="value"`` pairs from the tag body ``xml[start:end]``."""
    attributes: list[tuple[str, str]] = []
    seen: set[str] = set()
    i = start
    while i < end:
        ch = xml[i]
        if ch in " \t\n\r":
            i += 1
            continue
        eq = xml.find("=", i, end)
        if eq == -1:
            raise _error(xml, i, "expected '=' in attribute")
        name = xml[i:eq].strip()
        if not _is_name(name):
            raise _error(xml, i, f"bad attribute name {name!r}")
        if name in seen:
            raise _error(xml, i, f"duplicate attribute {name!r}")
        seen.add(name)
        j = eq + 1
        while j < end and xml[j] in " \t\n\r":
            j += 1
        if j >= end or xml[j] not in "\"'":
            raise _error(xml, j, "attribute value must be quoted")
        quote = xml[j]
        close = xml.find(quote, j + 1, end)
        if close == -1:
            raise _error(xml, j, "unterminated attribute value")
        raw = xml[j + 1 : close]
        if "<" in raw:
            raise _error(xml, j, "'<' not allowed in attribute value")
        if "\t" in raw or "\n" in raw:
            raw = raw.translate(_ATTRIBUTE_SPACE)
        value_entities = entities
        if entities and "&" in raw:
            # White space in an entity's replacement text reads as a
            # space too, character references in it included.
            value_entities = {
                key: text.translate(_ATTRIBUTE_SPACE)
                for key, text in entities.items()
            }
        attributes.append((name, unescape(xml, raw, j + 1, value_entities)))
        i = close + 1
    return attributes


class StreamingParser:
    """The XML scanner: ``feed`` chunks, receive events.

    Input held back for an incomplete construct is bounded by the
    largest single token (tag, comment, CDATA section, DOCTYPE or text
    run between tags).  The events, and the message, position and line
    of any :class:`~repro.errors.XmlSyntaxError`, do not depend on how
    the input is chunked; positions count characters after line-end
    normalisation.
    """

    def __init__(self) -> None:
        self._buffer = ""
        self._cursor = 0  # first unconsumed character of _buffer
        self._offset = 0  # characters dropped before _buffer[0]
        self._lines = 0  # newlines dropped before _buffer[0]
        self._stack: list[str] = []
        self._seen_root = False
        self._entities: dict[str, str] | None = None
        self._closed = False
        self._held_cr = False  # a "\r" ending the last chunk

    def feed(self, chunk: str) -> list[tuple]:
        """Consume a chunk; return the events it completed."""
        if self._closed:
            raise XmlSyntaxError("feed() after close()")
        # A "\r" at the end of a chunk may pair with a "\n" opening the
        # next one, so it waits for that chunk (or close()).
        if self._held_cr:
            chunk = "\r" + chunk
        self._held_cr = chunk.endswith("\r")
        chunk = _normalise_line_ends(chunk[:-1] if self._held_cr else chunk)
        # Drop the consumed prefix once per call, not once per token:
        # re-slicing per token makes a large chunk quadratic.
        cursor = self._cursor
        self._offset += cursor
        self._lines += self._buffer.count("\n", 0, cursor)
        self._buffer = self._buffer[cursor:] + chunk
        self._cursor = 0
        return list(self._scan(final=False))

    def close(self) -> list[tuple]:
        """Signal end of input; return trailing events.

        Raises :class:`XmlSyntaxError` on truncated documents.
        """
        if self._closed:
            return []
        self._closed = True
        if self._held_cr:
            self._buffer += "\n"
        return list(self._scan(final=True))

    def _scan(self, final: bool) -> Iterator[tuple]:
        """Yield the events of every complete token from the cursor on.

        Without ``final``, an incomplete token stops the scan at its
        first character; the next :meth:`feed` resumes there.
        """
        xml = self._buffer
        i = self._cursor
        n = len(xml)
        stack = self._stack
        seen_root = self._seen_root
        entities = self._entities
        try:
            while i < n:
                lt = xml.find("<", i)
                if lt == -1:
                    if final and xml[i:].strip():
                        if stack:
                            raise _error(xml, i, f"unclosed element <{stack[-1]}>")
                        raise _error(xml, i, "character data outside the root element")
                    break
                if lt > i:
                    text = xml[i:lt]
                    if stack:
                        yield ("text", unescape(xml, text, i, entities))
                    elif text.strip():
                        raise _error(xml, i, "character data outside the root element")
                    i = lt
                if lt + 1 >= n:
                    if final:
                        raise _error(xml, lt, "truncated markup")
                    break
                marker = xml[lt + 1]
                if marker == "/":
                    gt = xml.find(">", lt + 2)
                    if gt == -1:
                        if final:
                            raise _error(xml, lt, "unterminated end tag")
                        break
                    name = xml[lt + 2 : gt].strip()
                    if not stack:
                        raise _error(xml, lt, f"unexpected end tag </{name}>")
                    if name != stack[-1]:
                        raise _error(
                            xml, lt, f"mismatched end tag </{name}>, open <{stack[-1]}>"
                        )
                    stack.pop()
                    yield ("end", name)
                    i = gt + 1
                elif marker == "?":
                    close = xml.find("?>", lt + 2)
                    if close == -1:
                        if final:
                            raise _error(xml, lt, "unterminated processing instruction")
                        break
                    body = xml[lt + 2 : close]
                    target, _, data = body.partition(" ")
                    if not _is_name(target):
                        raise _error(xml, lt, f"bad PI target {target!r}")
                    if target.lower() != "xml":  # the XML declaration is dropped
                        if stack:
                            yield ("pi", target, data.strip())
                        # PIs outside the root are legal; we skip them.
                    i = close + 2
                elif marker == "!":
                    if xml.startswith("<!--", lt):
                        close = xml.find("-->", lt + 4)
                        if close == -1:
                            if final:
                                raise _error(xml, lt, "unterminated comment")
                            break
                        if stack:
                            yield ("comment", xml[lt + 4 : close])
                        i = close + 3
                    elif xml.startswith("<![CDATA[", lt):
                        close = xml.find("]]>", lt + 9)
                        if close == -1:
                            if final:
                                raise _error(xml, lt, "unterminated CDATA section")
                            break
                        if not stack:
                            raise _error(xml, lt, "CDATA outside the root element")
                        yield ("text", xml[lt + 9 : close])
                        i = close + 3
                    elif xml.startswith("<!DOCTYPE", lt):
                        # Skip the doctype, collecting internal-subset entities.
                        depth = 0
                        subset_start = -1
                        j = lt + 9
                        while j < n:
                            ch = xml[j]
                            if ch == "[":
                                if depth == 0:
                                    subset_start = j + 1
                                depth += 1
                            elif ch == "]":
                                depth -= 1
                                if depth == 0 and subset_start >= 0:
                                    entities = _parse_internal_subset(
                                        xml, subset_start, j
                                    )
                            elif ch == ">" and depth <= 0:
                                break
                            j += 1
                        if j >= n:
                            if final:
                                raise _error(xml, lt, "unterminated DOCTYPE")
                            break
                        i = j + 1
                    elif not final and n - lt < 9:
                        break  # may still become one of the above
                    else:
                        raise _error(xml, lt, "unrecognised markup declaration")
                else:
                    gt = lt + 1
                    depth_quote = ""
                    while gt < n:
                        ch = xml[gt]
                        if depth_quote:
                            if ch == depth_quote:
                                depth_quote = ""
                        elif ch in "\"'":
                            depth_quote = ch
                        elif ch == ">":
                            break
                        gt += 1
                    if gt >= n:
                        if final:
                            raise _error(xml, lt, "unterminated start tag")
                        break
                    self_closing = xml[gt - 1] == "/"
                    body_end = gt - 1 if self_closing else gt
                    body = xml[lt + 1 : body_end]
                    name_end = 0
                    while name_end < len(body) and body[name_end] not in " \t\n\r":
                        name_end += 1
                    name = body[:name_end]
                    if not _is_name(name):
                        raise _error(xml, lt, f"bad element name {name!r}")
                    if not stack:
                        if seen_root:
                            raise _error(xml, lt, "multiple root elements")
                        seen_root = True
                    attributes = _parse_attributes(
                        xml, lt + 1 + name_end, lt + 1 + len(body), entities
                    )
                    yield ("start", name, attributes)
                    if self_closing:
                        yield ("end", name)
                    else:
                        stack.append(name)
                    i = gt + 1
            if final and stack:
                raise _error(xml, n - 1, f"unclosed element <{stack[-1]}>")
        except XmlSyntaxError as exc:
            # Positions above are relative to the buffer; report them
            # in the whole input.
            raise XmlSyntaxError(
                exc.message, exc.position + self._offset, exc.line + self._lines
            ) from None
        self._cursor = i
        self._seen_root = seen_root
        self._entities = entities
        if final and not seen_root:
            raise XmlSyntaxError("no root element", position=0, line=1)


def parse_events(xml: str) -> Iterator[tuple]:
    """Parse ``xml`` into events, lazily.

    Yields tuples:

    * ``("start", name, attributes)`` — attributes is a list of
      ``(name, value)`` pairs in document order;
    * ``("text", data)`` — character data (entity references resolved;
      adjacent CDATA/text may arrive as separate events);
    * ``("end", name)``;
    * ``("comment", data)`` and ``("pi", target, data)``.

    Raises :class:`~repro.errors.XmlSyntaxError` on malformed input,
    including multiple or missing root elements.
    """
    parser = StreamingParser()
    parser._buffer = _normalise_line_ends(xml)
    return parser._scan(final=True)


def parse_stream(
    stream: IO[str], chunk_size: int = CHUNK_SIZE
) -> Iterator[tuple]:
    """Parse a text stream incrementally into events."""
    parser = StreamingParser()
    while chunk := stream.read(chunk_size):
        yield from parser.feed(chunk)
    yield from parser.close()
