"""The XML parser: a thin adapter over the stdlib's expat.

Produces a flat event stream (start/text/end/comment/pi) that the
shredder consumes.  Expat does the grammar: well-formedness, line ends
(XML 1.0 §2.11), attribute-value normalisation (§3.3.3), character
references and the entities of an internal DTD subset, which it
expands under its own input-amplification limit.  This module only
shapes expat's callbacks into events and refuses what would reach
outside the document: an external entity reference or a skipped entity
(an undeclared one after an external DTD subset) raises, and nothing
is fetched.  It also applies expat's amplification factor from a lower
threshold (:data:`AMPLIFICATION_THRESHOLD`), since expat 2.5 checks it
only past 8 MiB of output.

There is one parser, :class:`StreamingParser`.  :func:`parse_events`
feeds it a string in :data:`CHUNK_SIZE` slices and :func:`parse_stream`
feeds it from a file handle.
"""

from __future__ import annotations

from typing import IO, Iterator
from xml.parsers import expat

from ..errors import XmlSyntaxError

__all__ = [
    "StreamingParser",
    "parse_events",
    "parse_stream",
    "escape_text",
    "escape_attribute",
]

#: Slice size for :func:`parse_events` and read size for :func:`parse_stream`.
#: Expat hands over a slice's events at once, so this bounds that
#: batch: 64 KiB slices raised perf's ``embed_read`` peak RSS by 6 %.
CHUNK_SIZE = 16 * 1024

#: Characters the parser delivers per input byte before it refuses the
#: document (expat's own default factor) ...
AMPLIFICATION_FACTOR = 100
#: ... once it has delivered more than this many characters in all.
AMPLIFICATION_THRESHOLD = 1 << 20


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


class StreamingParser:
    """``feed`` chunks, receive events.

    Adjacent character data (text, CDATA sections, references) arrives
    as one ``text`` event, so the events do not depend on how the input
    is chunked; nor do the message, line and column of an
    :class:`~repro.errors.XmlSyntaxError`.
    """

    def __init__(self) -> None:
        self._events: list[tuple] = []
        self._text: list[str] = []
        self._depth = 0
        self._closed = False
        #: Input bytes handed to expat and characters delivered as
        #: text and attributes (the amplification check).
        self._consumed = 0
        self._delivered = 0
        # The input is handed over as UTF-8 whatever its declaration
        # says; a lone surrogate passes through as bytes expat rejects.
        parser = self._parser = expat.ParserCreate(encoding="utf-8")
        parser.ordered_attributes = True
        parser.buffer_text = True
        parser.StartElementHandler = self._start
        parser.EndElementHandler = self._end
        parser.CharacterDataHandler = self._text.append
        parser.CommentHandler = self._comment
        parser.ProcessingInstructionHandler = self._pi
        # Returning 0 makes expat fail the reference instead of fetching.
        parser.ExternalEntityRefHandler = lambda *_: 0
        parser.SkippedEntityHandler = self._skipped

    def _deliver(self, characters: int) -> None:
        """Count characters handed out; refuse a document that expands
        past :data:`AMPLIFICATION_FACTOR` per input byte."""
        self._delivered += characters
        if (
            self._delivered > AMPLIFICATION_THRESHOLD
            and self._delivered > AMPLIFICATION_FACTOR * self._consumed
        ):
            parser = self._parser
            raise XmlSyntaxError(
                expat.errors.XML_ERROR_AMPLIFICATION_LIMIT_BREACH,
                parser.CurrentColumnNumber,
                parser.CurrentLineNumber,
            )

    def _flush(self) -> None:
        if self._text:
            self._deliver(sum(map(len, self._text)))
            self._events.append(("text", "".join(self._text)))
            self._text.clear()

    def _start(self, name: str, attributes: list[str]) -> None:
        self._flush()
        self._deliver(sum(map(len, attributes)))
        self._depth += 1
        pairs = list(zip(attributes[::2], attributes[1::2]))
        self._events.append(("start", name, pairs))

    def _end(self, name: str) -> None:
        self._flush()
        self._depth -= 1
        self._events.append(("end", name))

    # Comments and PIs outside the root element are dropped.
    def _comment(self, data: str) -> None:
        if self._depth:
            self._flush()
            self._events.append(("comment", data))

    def _pi(self, target: str, data: str) -> None:
        if self._depth:
            self._flush()
            self._events.append(("pi", target, data))

    def _skipped(self, name: str, is_parameter_entity: bool) -> None:
        parser = self._parser
        raise XmlSyntaxError(
            expat.errors.XML_ERROR_UNDEFINED_ENTITY,
            parser.CurrentColumnNumber,
            parser.CurrentLineNumber,
        )

    def _parse(self, data: str, final: bool) -> list[tuple]:
        payload = data.encode("utf-8", "surrogatepass")
        self._consumed += len(payload)
        try:
            self._parser.Parse(payload, final)
        except expat.ExpatError as exc:
            raise XmlSyntaxError(
                expat.ErrorString(exc.code), exc.offset, exc.lineno
            ) from None
        events, self._events = self._events, []
        return events

    def feed(self, chunk: str) -> list[tuple]:
        """Consume a chunk; return the events it completed."""
        if self._closed:
            raise XmlSyntaxError("feed() after close()")
        return self._parse(chunk, False)

    def close(self) -> list[tuple]:
        """Signal end of input; return trailing events.

        Raises :class:`XmlSyntaxError` on truncated documents.
        """
        if self._closed:
            return []
        self._closed = True
        try:
            return self._parse("", True)
        finally:
            # expat's handlers are bound methods of this parser: drop
            # the cycle, so a finished parse is freed without the
            # cyclic collector.
            self._parser = None


def parse_events(xml: str) -> Iterator[tuple]:
    """Parse ``xml`` into events, lazily, one :data:`CHUNK_SIZE` slice
    at a time.

    Yields tuples:

    * ``("start", name, attributes)`` — attributes is a list of
      ``(name, value)`` pairs in document order;
    * ``("text", data)`` — all adjacent character data, references
      resolved;
    * ``("end", name)``;
    * ``("comment", data)`` and ``("pi", target, data)``, inside the
      root element only.

    Raises :class:`~repro.errors.XmlSyntaxError` on malformed input,
    including multiple or missing root elements.
    """
    parser = StreamingParser()
    for start in range(0, len(xml), CHUNK_SIZE):
        yield from parser.feed(xml[start : start + CHUNK_SIZE])
    yield from parser.close()


def parse_stream(
    stream: IO[str], chunk_size: int = CHUNK_SIZE
) -> Iterator[tuple]:
    """Parse a text stream incrementally into events."""
    parser = StreamingParser()
    while chunk := stream.read(chunk_size):
        yield from parser.feed(chunk)
    yield from parser.close()
