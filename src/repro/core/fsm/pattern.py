"""Custom typed indices from regular expressions.

The paper's recipe needs only a DFA per type; everything else (the
normalised FSM/SCT, fragments, maintenance) is generic.  This module
closes the loop for *users*: compile a regular expression into a DFA
(Thompson construction, then subset construction, over an alphabet
partitioned into character classes) and wrap it in a
:class:`~repro.core.fsm.fragment.TypePlugin` — a custom updatable
range index for product codes, ISBNs, emails, whatever the pattern
describes.

Supported syntax: literals, ``[...]`` classes (ranges, negation),
``.``, ``\\d \\w \\s``, ``* + ?``, ``|``, ``(...)`` groups and escaped
metacharacters.  Patterns anchor implicitly (whole-value match, like
``re.fullmatch``), and the alphabet is printable ASCII plus whitespace.
By default the typed value of a match is its exact text (ordered
lexicographically); pass ``cast`` for a custom value.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Callable, Sequence

from .fragment import Token, TypePlugin
from .machine import DEAD, Dfa

__all__ = ["PatternError", "pattern_plugin", "compile_pattern"]

#: The alphabet pattern machines operate over.
ALPHABET = frozenset(string.printable)

_DIGITS = frozenset("0123456789")
_WORD = frozenset(string.ascii_letters + string.digits + "_")
_SPACE = frozenset(" \t\n\r\x0b\x0c")


class PatternError(ValueError):
    """Raised on unsupported or malformed pattern syntax."""


# ---------------------------------------------------------------------------
# Pattern AST and parser
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Lit:
    chars: frozenset[str]


@dataclass(frozen=True)
class _Concat:
    parts: tuple


@dataclass(frozen=True)
class _Alt:
    options: tuple


@dataclass(frozen=True)
class _Repeat:
    inner: object
    kind: str  # * + ?


class _PatternParser:
    def __init__(self, pattern: str):
        self.pattern = pattern
        self.pos = 0

    def error(self, message: str) -> PatternError:
        return PatternError(
            f"{message} at position {self.pos} in {self.pattern!r}"
        )

    def peek(self) -> str | None:
        if self.pos < len(self.pattern):
            return self.pattern[self.pos]
        return None

    def parse(self):
        node = self._alternation()
        if self.pos != len(self.pattern):
            raise self.error("unexpected trailing input")
        return node

    def _alternation(self):
        options = [self._concat()]
        while self.peek() == "|":
            self.pos += 1
            options.append(self._concat())
        if len(options) == 1:
            return options[0]
        return _Alt(tuple(options))

    def _concat(self):
        parts = []
        while True:
            ch = self.peek()
            if ch is None or ch in "|)":
                break
            parts.append(self._repeat())
        return _Concat(tuple(parts))

    def _repeat(self):
        atom = self._atom()
        while True:
            ch = self.peek()
            if ch in ("*", "+", "?"):
                self.pos += 1
                atom = _Repeat(atom, ch)
            elif ch == "{":
                atom = self._bounded(atom)
            else:
                return atom

    def _bounded(self, atom):
        """Desugar ``{m}``/``{m,n}``/``{m,}`` into concat/optional/star."""
        close = self.pattern.find("}", self.pos)
        if close == -1:
            raise self.error("unterminated '{'")
        body = self.pattern[self.pos + 1 : close]
        low_text, comma, high_text = body.partition(",")
        try:
            low = int(low_text)
            if not comma:
                high: int | None = low
            elif high_text:
                high = int(high_text)
            else:
                high = None
        except ValueError:
            raise self.error(f"bad repetition {{{body}}}")
        if high is not None and high < low:
            raise self.error(f"bad repetition {{{body}}}")
        self.pos = close + 1
        parts = [atom] * low
        if high is None:
            parts.append(_Repeat(atom, "*"))
        else:
            parts.extend(_Repeat(atom, "?") for _ in range(high - low))
        return _Concat(tuple(parts))

    def _atom(self):
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            inner = self._alternation()
            if self.peek() != ")":
                raise self.error("unbalanced '('")
            self.pos += 1
            return inner
        if ch == "[":
            return _Lit(self._char_class())
        if ch == ".":
            self.pos += 1
            return _Lit(ALPHABET)
        if ch == "\\":
            return _Lit(self._escape())
        if ch in "*+?)|":
            raise self.error(f"misplaced {ch!r}")
        self.pos += 1
        return _Lit(frozenset(ch))

    def _escape(self) -> frozenset[str]:
        self.pos += 1  # the backslash
        ch = self.peek()
        if ch is None:
            raise self.error("dangling escape")
        self.pos += 1
        if ch == "d":
            return _DIGITS
        if ch == "w":
            return _WORD
        if ch == "s":
            return _SPACE
        if ch in "DWS":
            raise self.error(f"negated class \\{ch} is not supported")
        return frozenset(ch)

    def _char_class(self) -> frozenset[str]:
        self.pos += 1  # the '['
        negate = False
        if self.peek() == "^":
            negate = True
            self.pos += 1
        members: set[str] = set()
        first = True
        while True:
            ch = self.peek()
            if ch is None:
                raise self.error("unterminated character class")
            if ch == "]" and not first:
                self.pos += 1
                break
            first = False
            if ch == "\\":
                members |= self._escape()
                continue
            self.pos += 1
            if (
                self.peek() == "-"
                and self.pos + 1 < len(self.pattern)
                and self.pattern[self.pos + 1] != "]"
            ):
                self.pos += 1
                high = self.pattern[self.pos]
                self.pos += 1
                if ord(high) < ord(ch):
                    raise self.error(f"bad range {ch}-{high}")
                members |= {chr(c) for c in range(ord(ch), ord(high) + 1)}
            else:
                members.add(ch)
        if negate:
            return frozenset(ALPHABET - members)
        return frozenset(members)


# ---------------------------------------------------------------------------
# Thompson NFA and subset construction
# ---------------------------------------------------------------------------


class _NfaBuilder:
    def __init__(self):
        self.counter = 0
        self.edges: dict[int, list] = {}

    def state(self) -> int:
        self.counter += 1
        return self.counter

    def edge(self, src: int, label, dst: int) -> None:
        self.edges.setdefault(src, []).append((label, dst))

    def build(self, node) -> tuple[int, int]:
        if isinstance(node, _Lit):
            start, accept = self.state(), self.state()
            self.edge(start, node.chars, accept)
            return start, accept
        if isinstance(node, _Concat):
            start = current = self.state()
            for part in node.parts:
                sub_start, sub_accept = self.build(part)
                self.edge(current, None, sub_start)
                current = sub_accept
            accept = self.state()
            self.edge(current, None, accept)
            return start, accept
        if isinstance(node, _Alt):
            start, accept = self.state(), self.state()
            for option in node.options:
                sub_start, sub_accept = self.build(option)
                self.edge(start, None, sub_start)
                self.edge(sub_accept, None, accept)
            return start, accept
        if isinstance(node, _Repeat):
            sub_start, sub_accept = self.build(node.inner)
            start, accept = self.state(), self.state()
            self.edge(start, None, sub_start)
            if node.kind in "*?":
                self.edge(start, None, accept)
            self.edge(sub_accept, None, accept)
            if node.kind in "*+":
                self.edge(sub_accept, None, sub_start)
            return start, accept
        raise PatternError(f"unknown AST node {node!r}")  # pragma: no cover


def _partition_alphabet(node, atoms: list[frozenset[str]]) -> None:
    """Collect every charset the pattern mentions."""
    if isinstance(node, _Lit):
        atoms.append(node.chars)
    elif isinstance(node, _Concat):
        for part in node.parts:
            _partition_alphabet(part, atoms)
    elif isinstance(node, _Alt):
        for option in node.options:
            _partition_alphabet(option, atoms)
    elif isinstance(node, _Repeat):
        _partition_alphabet(node.inner, atoms)


def compile_pattern(name: str, pattern: str) -> Dfa:
    """Compile a regular expression into a minimized DFA."""
    ast = _PatternParser(pattern).parse()
    builder = _NfaBuilder()
    nfa_start, nfa_accept = builder.build(ast)

    # Partition the alphabet into classes: two characters share a class
    # iff they belong to exactly the same charsets of the pattern.
    charsets: list[frozenset[str]] = []
    _partition_alphabet(ast, charsets)
    signature_of: dict[str, tuple] = {}
    for ch in sorted(ALPHABET):
        signature_of[ch] = tuple(ch in cs for cs in charsets)
    classes: dict[tuple, list[str]] = {}
    for ch, signature in signature_of.items():
        if any(signature):
            classes.setdefault(signature, []).append(ch)
    class_list = sorted(classes.values())
    char_class = {
        ch: cid for cid, chars in enumerate(class_list) for ch in chars
    }
    class_names = [
        f"c{cid}:{chars[0]}" for cid, chars in enumerate(class_list)
    ]

    def eps_closure(states: frozenset[int]) -> frozenset[int]:
        stack = list(states)
        seen = set(states)
        while stack:
            state = stack.pop()
            for label, target in builder.edges.get(state, ()):
                if label is None and target not in seen:
                    seen.add(target)
                    stack.append(target)
        return frozenset(seen)

    start_set = eps_closure(frozenset([nfa_start]))
    dfa_states: dict[frozenset[int], int] = {start_set: 1}
    table_rows: dict[int, list[int]] = {}
    finals: set[int] = set()
    frontier = [start_set]
    while frontier:
        current = frontier.pop()
        current_id = dfa_states[current]
        if nfa_accept in current:
            finals.add(current_id)
        row = [DEAD] * len(class_list)
        for cid, chars in enumerate(class_list):
            probe = chars[0]
            targets = set()
            for state in current:
                for label, target in builder.edges.get(state, ()):
                    if label is not None and probe in label:
                        targets.add(target)
            if targets:
                closure = eps_closure(frozenset(targets))
                if closure not in dfa_states:
                    dfa_states[closure] = len(dfa_states) + 1
                    frontier.append(closure)
                row[cid] = dfa_states[closure]
        table_rows[current_id] = row

    n_states = len(dfa_states) + 1
    table = [[DEAD] * len(class_list) for _ in range(n_states)]
    for state_id, row in table_rows.items():
        table[state_id] = row
    dfa = Dfa(
        name=name,
        state_names=["<dead>"] + [f"q{i}" for i in range(1, n_states)],
        class_names=class_names,
        char_class=char_class,
        initial=1,
        finals=frozenset(finals),
        table=tuple(tuple(row) for row in table),
    )
    return dfa.minimize()


def _default_cast(plugin: TypePlugin, tokens: Sequence[Token]) -> str:
    return plugin.render(tokens)


def pattern_plugin(
    name: str,
    pattern: str,
    cast: Callable[[TypePlugin, Sequence[Token]], object] | None = None,
    max_elements: int = 4096,
) -> TypePlugin:
    """Build a :class:`TypePlugin` whose lexical space is ``pattern``.

    Register it with :func:`repro.core.fsm.register_type` to get a
    fully updatable typed range index over the pattern's matches::

        register_type("isbn", lambda: pattern_plugin(
            "isbn", r"97[89]-\\d-\\d\\d\\d\\d\\d-\\d\\d\\d-\\d"))
        manager = IndexManager(typed=("isbn",))
    """
    dfa = compile_pattern(name, pattern)
    # Decimal-digit classes may compress into runs (value, length pairs
    # reconstruct exactly); every other multi-char class keeps its
    # concrete character as payload so values render losslessly.
    chars_by_class: dict[int, set[str]] = {}
    for ch, cid in dfa.char_class.items():
        chars_by_class.setdefault(cid, set()).add(ch)
    run_classes = []
    char_classes = []
    for cid, chars in chars_by_class.items():
        if chars == set("0123456789"):
            run_classes.append(dfa.class_names[cid])
        elif len(chars) > 1:
            char_classes.append(dfa.class_names[cid])
    return TypePlugin(
        name=name,
        dfa=dfa,
        cast=cast or _default_cast,
        run_classes=tuple(run_classes),
        char_classes=tuple(char_classes),
        max_elements=max_elements,
    )
