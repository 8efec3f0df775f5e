"""Substring and regular-expression index (the paper's future work).

The paper closes with: "We intend to expand our work by designing
indices capable of answering queries that involve substring matching
and regular expressions."  This module is that extension, built in the
same spirit as the published indices — generic (every value leaf of
every document), self-tuning, compact, and updatable.

Design: a positional *q-gram* inverted index over the value leaves
(text and attribute nodes).  Every window of ``q`` characters of a
leaf value is hashed (with the paper's own hash function ``H`` — it is
a fine string hash); the inverted lists are one sorted run of
``(gram hash, nid)`` entries, the same structure as the other indices.

* ``contains(s)`` with ``len(s) >= q``: candidates = intersection of
  the posting lists of ``s``'s grams, then exact verification — no
  false negatives, collisions/verification remove false positives.
* shorter needles fall back to scanning (reported by the planner).
* regular expressions: mandatory literal factors of the pattern are
  extracted; the longest factor of length >= q prunes candidates,
  which are then verified with ``re``.

Like the paper's indices the structure is leaf-accurate: element-level
predicates (whose string value concatenates leaves) are answered by
verifying candidate ancestors, and a match that spans a leaf boundary
can only be found by the scan fallback — the classic q-gram trade-off,
documented in DESIGN.md.
"""

from __future__ import annotations

from array import array

import numpy as np

from ..btree import SortedRun
from .hashing import hash_string
from .value_index import ValueIndex

__all__ = ["SubstringIndex", "literal_factors"]

#: Default gram width: 3 balances posting-list size and selectivity.
DEFAULT_Q = 3

#: The field of a node that carries no gram: every container, and any
#: leaf shorter than ``q``.  Never stored.
NO_GRAMS = b""


def _grams(text: str, q: int) -> frozenset[int]:
    """Distinct hashed q-grams of ``text`` (empty if shorter than q)."""
    return frozenset(
        hash_string(text[i : i + q]) for i in range(len(text) - q + 1)
    )


def literal_factors(pattern: str) -> list[str]:
    """Mandatory literal factors of a regular expression.

    Conservative extraction: anything inside alternations, groups or
    adjacent to quantifiers is discarded, so every returned factor is
    guaranteed to occur in any match of the pattern.  Returns ``[]``
    when nothing can be guaranteed (the index then cannot prune).
    """
    factors: list[str] = []
    current: list[str] = []
    i = 0
    n = len(pattern)

    def flush(drop_last: bool = False) -> None:
        if drop_last and current:
            current.pop()
        if current:
            factors.append("".join(current))
        current.clear()

    while i < n:
        ch = pattern[i]
        if ch == "\\" and i + 1 < n:
            escaped = pattern[i + 1]
            if escaped.isalnum():  # \d, \w, \1 ... are classes/refs
                flush()
            else:
                current.append(escaped)
            i += 2
            continue
        if ch in "*+?":
            # The previous atom is optional/repeated: not mandatory.
            flush(drop_last=True)
            i += 1
            continue
        if ch == "{":
            close = pattern.find("}", i)
            flush(drop_last=True)
            i = close + 1 if close != -1 else n
            continue
        if ch in "([":
            # Skip the whole group/class: contents are not guaranteed.
            flush()
            closer = ")" if ch == "(" else "]"
            depth = 1
            i += 1
            while i < n and depth:
                if pattern[i] == "\\":
                    i += 2
                    continue
                if pattern[i] == ch:
                    depth += 1
                elif pattern[i] == closer:
                    depth -= 1
                i += 1
            continue
        if ch == "|":
            # Top-level alternation: no factor is mandatory at all
            # (alternations inside groups are skipped with the group).
            return []
        if ch in ".^$)]":
            flush()
            i += 1
            continue
        current.append(ch)
        i += 1
    flush()
    return [f for f in factors if f]


class SubstringIndex(ValueIndex):
    """Positional q-gram index over value leaves.

    Under the index protocol a leaf's field is its gram set, packed:
    the distinct gram hashes in ascending order as 4-byte integers (a
    ``frozenset`` of Python ints would cost some 100 bytes a gram).
    Both ``identity`` and ``combine`` yield the empty set: containers
    store nothing (the typed index's "absence signifies reject" rule),
    so the one creation/update pass maintains this index like any
    other.  Its keys are the grams themselves: the run over ``(gram
    hash, nid)`` is the inverted list, one ``nids_between(g, g)`` per
    posting list, and read views pin it like every other index's run.

    Args:
        q: Gram width (>= 2).
    """

    identity = NO_GRAMS
    absent = NO_GRAMS

    def __init__(self, q: int = DEFAULT_Q):
        if q < 2:
            raise ValueError("q must be at least 2")
        super().__init__("substring", SortedRun("<u4"))
        self.q = q

    def field_of_text(self, text: str) -> bytes:
        return array("I", sorted(_grams(text, self.q))).tobytes()

    def combine(self, left, right) -> bytes:
        return NO_GRAMS

    def stores(self, field: bytes) -> bool:
        return bool(field)

    def keys_of(self, field: bytes) -> frozenset[int]:
        return frozenset(array("I", field))

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def probe_literal(self, function: str, literal: str) -> str | None:
        """The needle the index probes for ``contains(…, literal)``
        (``function == "contains"``: the literal itself) or
        ``matches(…, literal)`` (the pattern's longest mandatory literal
        factor); ``None`` when it is shorter than q and the caller must
        scan.  Pure string work: deciding costs no index probe."""
        if function == "matches":
            factors = literal_factors(literal)
            literal = max(factors, key=len) if factors else ""
        return literal if len(literal) >= self.q else None

    def supports(self, needle: str) -> bool:
        """True iff the index can prune candidates for this needle."""
        return self.probe_literal("contains", needle) is not None

    def candidates(self, needle: str) -> "np.ndarray | None":
        """Leaf nids that *may* contain ``needle``, ascending.

        ``None`` means the index cannot answer (needle shorter than q)
        and the caller must scan.  The result can contain false
        positives (hash collisions) but never misses a leaf whose own
        text contains the needle.  Posting lists come from the reader's
        pinned run and are intersected shortest first.
        """
        if not self.supports(needle):
            return None
        tree = self._lookup_tree()
        postings = sorted(
            (tree.nids_between(gram, gram) for gram in _grams(needle, self.q)),
            key=len,
        )
        result = np.sort(postings[0])
        for nids in postings[1:]:
            if not len(result):
                break
            result = np.intersect1d(result, nids, assume_unique=True)
        return result

    def estimate_candidates(self, needle: str) -> int | None:
        """Cheap upper bound on ``candidates(needle)``: the shortest
        posting list among the needle's grams, counted in the base run
        (two ``searchsorted`` per gram; at most a small delta behind).
        ``None`` when the needle is too short for the index."""
        if not self.supports(needle):
            return None
        keys = self.tree.snapshot().base_keys
        grams = np.fromiter(_grams(needle, self.q), dtype=keys.dtype)
        sizes = keys.searchsorted(grams, "right") - keys.searchsorted(grams)
        return int(sizes.min())

    def candidates_for_regex(self, pattern: str) -> "np.ndarray | None":
        """Leaf nids that may match ``pattern`` (prefiltered by
        :meth:`probe_literal`'s factor); ``None`` if no factor of
        length >= q exists."""
        needle = self.probe_literal("matches", pattern)
        return None if needle is None else self.candidates(needle)

    # ------------------------------------------------------------------
    # Statistics / storage model
    # ------------------------------------------------------------------

    def _posting_lengths(self) -> "np.ndarray":
        """Posting-list length of every distinct gram."""
        keys, _nids = self.tree.columns()
        return np.unique(keys, return_counts=True)[1]

    def posting_count(self) -> int:
        return len(self.tree)

    def byte_size(self) -> int:
        """Modelled storage: 4-byte gram hash per distinct gram plus a
        4-byte nid per posting."""
        return 4 * len(self._posting_lengths()) + 4 * self.posting_count()

    def gram_distribution(self) -> dict[int, int]:
        """posting-list length -> number of grams (selectivity probe)."""
        lengths, grams = np.unique(self._posting_lengths(), return_counts=True)
        return dict(zip(lengths.tolist(), grams.tolist()))
