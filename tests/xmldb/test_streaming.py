"""Tests for chunked parsing and stream shredding.

The stdlib's expat is the reference parser: on well-formed input both
must produce the same elements, attributes (in order), comments, PIs
and text (adjacent text coalesced), whatever the chunking.  Malformed
input must fail with the same message, position and line however it is
chunked.
"""

import functools
import io
from xml.parsers import expat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import XmlSyntaxError
from repro.workloads import generate_xmark
from repro.workloads.catalog import DATASETS
from repro.xmldb import Store
from repro.xmldb.parser import (
    StreamingParser,
    escape_attribute,
    escape_text,
    parse_events,
    parse_stream,
)

SAMPLES = [
    "<a/>",
    "<a>text</a>",
    '<a x="1" y="&amp;"><b>one</b>two<c/>three</a>',
    "<a><!-- comment --><?pi data?><![CDATA[<raw>&]]></a>",
    '<?xml version="1.0"?><!DOCTYPE a [<!ENTITY w "hi">]><a>&w;</a>',
    '<!DOCTYPE a [<!ENTITY w "x&#10;y\tz">]><a k="&w;&#10;">&w;</a>',
    "  <a>\n  mixed <b>deep<c>er</c></b> tail\n</a>  ",
]

#: Chunk sizes for the reference comparison; ``None`` feeds the input whole.
FEEDS = [1, 7, 4096, None]


def chunked(xml, size):
    parser = StreamingParser()
    events = []
    for i in range(0, len(xml), size):
        events.extend(parser.feed(xml[i : i + size]))
    events.extend(parser.close())
    return events


def fed(xml, size):
    return list(parse_events(xml)) if size is None else chunked(xml, size)


def expat_events(xml):
    """expat's reading of ``xml`` as this parser's event tuples."""
    events = []
    depth = 0
    parser = expat.ParserCreate()
    parser.ordered_attributes = True

    def start(name, attributes):
        nonlocal depth
        depth += 1
        pairs = list(zip(attributes[::2], attributes[1::2]))
        events.append(("start", name, pairs))

    def end(name):
        nonlocal depth
        depth -= 1
        events.append(("end", name))

    # This parser drops comments and PIs outside the root element.
    def comment(data):
        if depth:
            events.append(("comment", data))

    def pi(target, data):
        if depth:
            events.append(("pi", target, data))

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = lambda data: events.append(("text", data))
    parser.CommentHandler = comment
    parser.ProcessingInstructionHandler = pi
    parser.Parse(xml, True)
    return events


def coalesced(events):
    """Join adjacent text events and drop empty text: the two parsers
    split character data at different places."""
    out = []
    text = []
    for event in events:
        if event[0] == "text":
            text.append(event[1])
            continue
        if "".join(text):
            out.append(("text", "".join(text)))
        text.clear()
        out.append(event)
    return out


@functools.cache
def corpus(name):
    return DATASETS[name].build(0.03)


NAMES = st.builds(
    str.__add__,
    st.sampled_from("abcdefgh"),
    st.text("abcdefgh0123456789_.-", max_size=4),
)
CHARS = st.characters(blacklist_categories=("Cs", "Cc"), max_codepoint=0x7FF)
TEXT = st.lists(
    CHARS | st.sampled_from(["\n", "\t", "\r", "\r\n"]), max_size=12
).map("".join)
WORDS = st.lists(
    st.text("abcdefgh0123456789", min_size=1, max_size=6), min_size=1, max_size=3
).map(" ".join)


def render(name, attributes, children):
    attrs = "".join(f' {key}="{value}"' for key, value in attributes.items())
    inner = "".join(children)
    return f"<{name}{attrs}>{inner}</{name}>" if inner else f"<{name}{attrs}/>"


@st.composite
def documents(draw):
    """Well-formed documents that expat and this parser read alike,
    with ASCII names."""
    entities = draw(st.dictionaries(st.sampled_from(["e1", "e2"]), WORDS))
    references = ["&amp;", "&lt;", "&#65;", "&#x3b1;"]
    references += [f"&{name};" for name in entities]
    leaf = st.one_of(
        TEXT.map(escape_text),
        st.sampled_from(references),
        TEXT.filter(lambda t: "]]>" not in t).map(lambda t: f"<![CDATA[{t}]]>"),
        TEXT.filter(lambda t: "--" not in t and not t.endswith("-")).map(
            lambda t: f"<!--{t}-->"
        ),
        st.builds("<?{} {}?>".format, NAMES, WORDS),
    )
    value = st.text(CHARS | st.sampled_from("\t\n\r"), max_size=8).map(
        escape_attribute
    )

    def element(children):
        return st.builds(
            render,
            NAMES,
            st.dictionaries(NAMES, value, max_size=3),
            st.lists(children, max_size=4),
        )

    root = draw(element(st.recursive(leaf, element, max_leaves=12)))
    prolog = draw(st.sampled_from(["", '<?xml version="1.0"?>\n']))
    if entities:
        declarations = "".join(
            f'<!ENTITY {name} "{text}">' for name, text in entities.items()
        )
        prolog += f"<!DOCTYPE doc [{declarations}]>"
        # Use every declaration, even where the drawn tree does not.
        root = f"<doc>{''.join(f'&{name};' for name in entities)}{root}</doc>"
    prolog += draw(st.sampled_from(["", "<!--head-->", " \n"]))
    return prolog + root + draw(st.sampled_from(["", "\n", "<!--tail-->"]))


class TestExpatReference:
    @pytest.mark.parametrize("size", FEEDS)
    @pytest.mark.parametrize("xml", SAMPLES)
    def test_samples(self, xml, size):
        assert coalesced(fed(xml, size)) == coalesced(expat_events(xml))

    @pytest.mark.parametrize("size", FEEDS)
    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_catalog_corpora(self, name, size):
        xml = corpus(name)
        assert coalesced(fed(xml, size)) == coalesced(expat_events(xml))

    @given(documents(), st.sampled_from(FEEDS))
    @settings(max_examples=100, deadline=None)
    def test_generated_documents(self, xml, size):
        assert coalesced(fed(xml, size)) == coalesced(expat_events(xml))


MALFORMED = [
    "",
    "   ",
    "<a>",
    "<a>\n\n",
    "<a></b>",
    "<a>\n<b>\n</c></b></a>",
    "</a>",
    "<a/>\n<b/>",
    "text<a/>",
    "<a/>\ntext",
    "<r>\n<a>\n<b x=1/></a></r>",
    '<r>\n<a x="1" x="2"/></r>',
    '<r>\n<a x="<b>"/></r>',
    "<r>\n<a>\n&bogus;</a></r>",
    "<r>\n<a>&#xZZ;</a></r>",
    '<!DOCTYPE r [<!ENTITY e "&#xZZ;">]>\n<r/>',
    '<!DOCTYPE r [<!ENTITY e "x">]>\n<r>\n&e;&f;</r>',
    "<r>\n<1a/></r>",
    "<r>\n<!FOO></r>",
    "<r>\n<? x?></r>",
    "<r>\n<!-- unterminated </r>",
    "<r>\n<![CDATA[ unterminated </r>",
    "<r>\n<a",
    "<r>\n<",
    "<!--x-->\n",
    "<r>\n" + "<a>x</a>\n" * 10_000 + "<b x=1/></r>",
    "<r>\n" + "<a>x</a>\n" * 10_000 + "</x>",
]


def error_of(parse):
    with pytest.raises(XmlSyntaxError) as info:
        parse()
    return str(info.value), info.value.position, info.value.line


class TestErrorFidelity:
    @pytest.mark.parametrize("xml", MALFORMED, ids=range(len(MALFORMED)))
    def test_chunking_does_not_move_errors(self, xml):
        whole = error_of(lambda: list(parse_events(xml)))
        for size in (1, 3, 64 * 1024):
            assert error_of(lambda: chunked(xml, size)) == whole, size

    def test_line_ends_count_as_one_newline(self):
        xml = "<r>\r\n<a>\r\r\n<b x=1/></a></r>"
        lf = "<r>\n<a>\n\n<b x=1/></a></r>"
        expected = error_of(lambda: list(parse_events(lf)))
        assert error_of(lambda: list(parse_events(xml))) == expected
        for size in (1, 3, 4, 64 * 1024):
            assert error_of(lambda: chunked(xml, size)) == expected, size


class TestEquivalence:
    @pytest.mark.parametrize("xml", SAMPLES)
    @pytest.mark.parametrize("size", [1, 2, 3, 5, 64, 10_000])
    def test_matches_batch_parser(self, xml, size):
        assert chunked(xml, size) == list(parse_events(xml))

    def test_large_document_all_chunkings(self):
        xml = generate_xmark(0.1)
        batch = list(parse_events(xml))
        for size in (17, 1024, 64 * 1024):
            assert chunked(xml, size) == batch

    @given(st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_random_chunk_sizes(self, size):
        xml = SAMPLES[2] + ""
        assert chunked(xml, size) == list(parse_events(xml))


class TestErrors:
    def test_truncated_document(self):
        parser = StreamingParser()
        parser.feed("<a><b>unfinished")
        with pytest.raises(XmlSyntaxError):
            parser.close()

    def test_truncated_tag(self):
        parser = StreamingParser()
        parser.feed("<a")
        with pytest.raises(XmlSyntaxError, match="unterminated|unclosed|no root"):
            parser.close()

    def test_mismatched_end_tag_raised_mid_stream(self):
        parser = StreamingParser()
        with pytest.raises(XmlSyntaxError, match="mismatched"):
            parser.feed("<a></b>")

    def test_feed_after_close(self):
        parser = StreamingParser()
        parser.feed("<a/>")
        parser.close()
        with pytest.raises(XmlSyntaxError):
            parser.feed("<b/>")

    def test_double_close_is_noop(self):
        parser = StreamingParser()
        parser.feed("<a/>")
        assert parser.close() == []
        assert parser.close() == []

    def test_no_root(self):
        parser = StreamingParser()
        parser.feed("   ")
        with pytest.raises(XmlSyntaxError, match="no root"):
            parser.close()


class TestStreamShred:
    def test_parse_stream(self):
        xml = SAMPLES[2]
        events = list(parse_stream(io.StringIO(xml), chunk_size=4))
        assert events == list(parse_events(xml))

    def test_add_document_file(self, tmp_path):
        xml = generate_xmark(0.05)
        path = tmp_path / "doc.xml"
        path.write_text(xml, encoding="utf-8")
        streamed = Store().add_document_file("doc", str(path))
        batch = Store().add_document("doc", xml)
        assert streamed.serialize() == batch.serialize()
        assert streamed.kind == batch.kind
        assert streamed.source_bytes == len(xml.encode("utf-8"))
        streamed.check_invariants()

    def test_duplicate_name_rejected(self, tmp_path):
        from repro.errors import DocumentError

        path = tmp_path / "doc.xml"
        path.write_text("<a/>")
        store = Store()
        store.add_document_file("doc", str(path))
        with pytest.raises(DocumentError):
            store.add_document_file("doc", str(path))

    def test_entity_split_across_chunks(self):
        xml = "<a>x&amp;y</a>"
        # Split right inside the entity reference.
        parser = StreamingParser()
        events = parser.feed("<a>x&am")
        events += parser.feed("p;y</a>")
        events += parser.close()
        assert ("text", "x&y") in events
