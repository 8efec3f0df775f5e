"""Tests for the XML parser (an adapter over expat)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import XmlSyntaxError
from repro.xmldb.parser import escape_attribute, escape_text, parse_events


def events(xml):
    return list(parse_events(xml))


class TestBasics:
    def test_single_empty_element(self):
        assert events("<a/>") == [("start", "a", []), ("end", "a")]

    def test_element_with_text(self):
        assert events("<a>hi</a>") == [
            ("start", "a", []),
            ("text", "hi"),
            ("end", "a"),
        ]

    def test_nested(self):
        assert events("<a><b>x</b></a>") == [
            ("start", "a", []),
            ("start", "b", []),
            ("text", "x"),
            ("end", "b"),
            ("end", "a"),
        ]

    def test_attributes(self):
        assert events('<a x="1" y="two"/>') == [
            ("start", "a", [("x", "1"), ("y", "two")]),
            ("end", "a"),
        ]

    def test_single_quoted_attribute(self):
        assert events("<a x='1'/>")[0] == ("start", "a", [("x", "1")])

    def test_whitespace_in_tags(self):
        assert events('<a  x = "1" ></a>')[0] == ("start", "a", [("x", "1")])

    def test_mixed_content(self):
        assert events("<a>one<b/>two</a>") == [
            ("start", "a", []),
            ("text", "one"),
            ("start", "b", []),
            ("end", "b"),
            ("text", "two"),
            ("end", "a"),
        ]

    def test_whitespace_text_outside_root_ok(self):
        assert events("  <a/>\n") == [("start", "a", []), ("end", "a")]

    def test_xml_declaration_skipped(self):
        assert events('<?xml version="1.0"?><a/>') == [
            ("start", "a", []),
            ("end", "a"),
        ]

    def test_doctype_skipped(self):
        xml = '<!DOCTYPE a [<!ENTITY x "y">]><a/>'
        assert events(xml) == [("start", "a", []), ("end", "a")]


class TestSpecialConstructs:
    def test_comment(self):
        assert events("<a><!-- hi --></a>") == [
            ("start", "a", []),
            ("comment", " hi "),
            ("end", "a"),
        ]

    def test_comment_outside_root_skipped(self):
        assert events("<!--x--><a/><!--y-->") == [
            ("start", "a", []),
            ("end", "a"),
        ]

    def test_cdata(self):
        assert events("<a><![CDATA[<not> & markup]]></a>") == [
            ("start", "a", []),
            ("text", "<not> & markup"),
            ("end", "a"),
        ]

    def test_pi(self):
        assert events('<a><?target data="1"?></a>') == [
            ("start", "a", []),
            ("pi", "target", 'data="1"'),
            ("end", "a"),
        ]

    def test_entities_in_text(self):
        assert events("<a>&lt;&amp;&gt;&apos;&quot;</a>")[1] == (
            "text",
            "<&>'\"",
        )

    def test_char_references(self):
        assert events("<a>&#65;&#x42;</a>")[1] == ("text", "AB")

    def test_entities_in_attributes(self):
        assert events('<a x="&amp;&#33;"/>')[0] == ("start", "a", [("x", "&!")])


class TestErrors:
    @pytest.mark.parametrize(
        "xml",
        [
            "",
            "   ",
            "<a>",  # unclosed
            "<a></b>",  # mismatch
            "</a>",  # bare end
            "<a/><b/>",  # two roots
            "text<a/>",  # text before root
            "<a/>text",  # text after root
            "<a x=1/>",  # unquoted attribute
            '<a x="1" x="2"/>',  # duplicate attribute
            "<a>&unknown;</a>",  # unknown entity
            "<a>&#xZZ;</a>",  # bad char ref
            "<1a/>",  # bad name
            "<a><!-- unterminated </a>",
            "<a><![CDATA[ unterminated </a>",
            '<a x="<b>"/>',  # '<' in attribute
        ],
    )
    def test_malformed(self, xml):
        with pytest.raises(XmlSyntaxError):
            events(xml)

    def test_error_carries_line(self):
        with pytest.raises(XmlSyntaxError) as exc_info:
            events("<a>\n\n</b>")
        assert exc_info.value.line == 3


class TestEscaping:
    def test_text_roundtrip(self):
        original = 'a<b&c>d"e'
        assert events(f"<a>{escape_text(original)}</a>")[1] == ("text", original)

    def test_attribute_roundtrip(self):
        original = 'a<b&c"d'
        xml = f'<a x="{escape_attribute(original)}"/>'
        assert events(xml)[0] == ("start", "a", [("x", original)])


@given(
    st.text(
        alphabet=st.characters(blacklist_characters="\r", min_codepoint=32, max_codepoint=1000),
        max_size=60,
    )
)
@settings(max_examples=150)
def test_any_text_roundtrips_through_escape(text):
    parsed = events(f"<a>{escape_text(text)}</a>")
    got = "".join(e[1] for e in parsed if e[0] == "text")
    assert got == text


class TestInternalDtdEntities:
    def test_declared_entity_in_text(self):
        xml = '<!DOCTYPE r [<!ENTITY who "Arthur">]><r>&who;</r>'
        assert events(xml)[1] == ("text", "Arthur")

    def test_declared_entity_in_attribute(self):
        xml = '<!DOCTYPE r [<!ENTITY who "Arthur">]><r a="&who;!"/>'
        assert events(xml)[0] == ("start", "r", [("a", "Arthur!")])

    def test_nested_entity_expansion(self):
        xml = (
            '<!DOCTYPE r [<!ENTITY who "Arthur">'
            '<!ENTITY greet "hi &who;">]><r>&greet;</r>'
        )
        assert events(xml)[1] == ("text", "hi Arthur")

    def test_char_refs_inside_entity_value(self):
        xml = '<!DOCTYPE r [<!ENTITY bang "&#33;">]><r>&bang;</r>'
        assert events(xml)[1] == ("text", "!")

    def test_single_quoted_entity_value(self):
        xml = "<!DOCTYPE r [<!ENTITY who 'Ford'>]><r>&who;</r>"
        assert events(xml)[1] == ("text", "Ford")

    def test_parameter_entities_ignored(self):
        xml = '<!DOCTYPE r [<!ENTITY % p "x"><!ENTITY who "ok">]><r>&who;</r>'
        assert events(xml)[1] == ("text", "ok")

    def test_undeclared_still_errors(self):
        with pytest.raises(XmlSyntaxError):
            events('<!DOCTYPE r [<!ENTITY who "x">]><r>&other;</r>')

    def test_predefined_not_overridden_by_subset(self):
        xml = '<!DOCTYPE r [<!ENTITY amp "BAD">]><r>&amp;</r>'
        assert events(xml)[1] == ("text", "&")


def amplified(levels: int) -> str:
    """A document whose one entity reference expands to 10**levels
    copies of a three-character text."""
    declarations = '<!ENTITY e0 "abc">' + "".join(
        f'<!ENTITY e{i} "{f"&e{i - 1};" * 10}">' for i in range(1, levels + 1)
    )
    return f"<!DOCTYPE r [{declarations}]><r>&e{levels};</r>"


class TestHostileInput:
    def test_modest_expansion_is_allowed(self):
        assert events(amplified(3))[1] == ("text", "abc" * 1000)

    def test_entity_amplification_is_refused(self):
        with pytest.raises(XmlSyntaxError, match="amplification"):
            events(amplified(7))

    def test_external_entity_reference_is_refused(self):
        xml = '<!DOCTYPE r [<!ENTITY ext SYSTEM "file:///etc/hostname">]><r>&ext;</r>'
        with pytest.raises(XmlSyntaxError, match="external entity"):
            events(xml)

    def test_undefined_entity_after_external_subset_is_refused(self):
        xml = '<!DOCTYPE r SYSTEM "r.dtd"><r>\n&undefined;</r>'
        with pytest.raises(XmlSyntaxError, match="undefined entity") as info:
            events(xml)
        assert info.value.line == 2

    @pytest.mark.parametrize(
        "text", ["a\ud800b", "a\x01b", "a\ufffeb", "a\uffffb", "&#1;"]
    )
    def test_characters_outside_xml_are_refused(self, text):
        with pytest.raises(XmlSyntaxError) as info:
            events(f"<r>\n{text}</r>")
        assert info.value.line == 2
