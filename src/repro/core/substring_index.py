"""Substring and regular-expression index (the paper's future work).

The paper closes with: "We intend to expand our work by designing
indices capable of answering queries that involve substring matching
and regular expressions."  This module is that extension, built in the
same spirit as the published indices — generic (every value leaf of
every document), self-tuning, compact, and updatable.

Design: a positional *q-gram* inverted index over the value leaves
(text and attribute nodes).  Every window of ``q`` characters of a
leaf value is hashed (with the paper's own hash function ``H`` — it is
a fine string hash) and mapped to the set of leaves containing it.

* ``contains(s)`` with ``len(s) >= q``: candidates = intersection of
  the posting sets of ``s``'s grams, then exact verification — no
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

from collections import Counter
from typing import Iterable, Iterator

from .hashing import hash_string
from .value_index import ValueIndex

__all__ = ["SubstringIndex", "literal_factors"]

#: Default gram width: 3 balances posting-list size and selectivity.
DEFAULT_Q = 3


#: The field of a node that carries no gram: every container, and any
#: leaf shorter than ``q``.  Never stored.
NO_GRAMS: frozenset[int] = frozenset()


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

    Under the index protocol a leaf's field is its gram set, and both
    ``identity`` and ``combine`` yield the empty set: containers store
    nothing (the typed index's "absence signifies reject" rule), so the
    one creation/update pass maintains this index like any other.  Its
    keys are the grams themselves, kept in posting sets rather than a
    ``(key, nid)`` tree — which is why it cannot be snapshotted.

    Args:
        q: Gram width (>= 2).
    """

    identity = NO_GRAMS
    absent = NO_GRAMS

    def __init__(self, q: int = DEFAULT_Q):
        if q < 2:
            raise ValueError("q must be at least 2")
        super().__init__("substring", None)
        self.q = q
        # gram hash -> set of leaf nids containing the gram.
        self._postings: dict[int, set[int]] = {}

    def field_of_text(self, text: str) -> frozenset[int]:
        return _grams(text, self.q)

    def combine(self, left, right) -> frozenset[int]:
        return NO_GRAMS

    def stores(self, field: frozenset[int]) -> bool:
        return bool(field)

    def spec(self) -> tuple:
        return (type(self), (self.q,))

    # ------------------------------------------------------------------
    # Maintenance: posting sets in place of the tree
    # ------------------------------------------------------------------

    def stage_entry(self, nid: int, field: frozenset[int]) -> None:
        # Nothing to sort or bulk-load: postings take entries directly.
        self.set_entry(nid, field)

    def finish_bulk(self) -> None:
        self._staged = None

    def _rekey(self, nid, old, new) -> None:
        """Delta-update the postings from gram set ``old`` to ``new``."""
        old = old or NO_GRAMS
        new = new or NO_GRAMS
        self._drop_postings(old - new, {nid})
        for gram in new - old:
            self._postings.setdefault(gram, set()).add(nid)

    def _drop_postings(self, grams: Iterable[int], nids: set[int]) -> None:
        for gram in grams:
            postings = self._postings.get(gram)
            if postings is not None:
                postings -= nids
                if not postings:
                    del self._postings[gram]

    def remove_entries(self, nids) -> int:
        """Bulk form of :meth:`remove_entry` (document unload).

        Collects the union of dropped grams first and prunes each
        posting list once, instead of per-nid discards.
        """
        fields = self.fields
        dropped = {nid for nid in nids if nid in fields}
        touched: set[int] = set()
        for nid in dropped:
            touched |= fields.pop(nid)
        self._drop_postings(touched, dropped)
        self.mutations += len(dropped)
        return len(dropped)

    def entries(self) -> Iterator[tuple[int, int]]:
        postings = self._postings
        return ((gram, nid) for gram in sorted(postings)
                for nid in sorted(postings[gram]))

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def supports(self, needle: str) -> bool:
        """True iff the index can prune candidates for this needle."""
        return len(needle) >= self.q

    def candidates(self, needle: str) -> set[int] | None:
        """Leaf nids that *may* contain ``needle``.

        ``None`` means the index cannot answer (needle shorter than q)
        and the caller must scan.  The result can contain false
        positives (hash collisions) but never misses a leaf whose own
        text contains the needle.
        """
        if not self.supports(needle):
            return None
        result: set[int] | None = None
        # Intersect rarest-first for cheap early exits.
        grams = sorted(
            _grams(needle, self.q),
            key=lambda g: len(self._postings.get(g, ())),
        )
        for gram in grams:
            postings = self._postings.get(gram)
            if not postings:
                return set()
            result = set(postings) if result is None else result & postings
            if not result:
                return set()
        return result if result is not None else set()

    def estimate_candidates(self, needle: str) -> int | None:
        """Cheap upper bound on ``candidates(needle)`` without set work:
        the smallest posting list among the needle's grams.  ``None``
        when the needle is too short for the index."""
        if not self.supports(needle):
            return None
        sizes = [
            len(self._postings.get(gram, ()))
            for gram in _grams(needle, self.q)
        ]
        return min(sizes) if sizes else 0

    def candidates_for_regex(self, pattern: str) -> set[int] | None:
        """Leaf nids that may match ``pattern`` (prefiltered by the
        longest mandatory literal factor); ``None`` if no factor of
        length >= q exists."""
        factors = [f for f in literal_factors(pattern) if len(f) >= self.q]
        if not factors:
            return None
        return self.candidates(max(factors, key=len))

    # ------------------------------------------------------------------
    # Statistics / storage model
    # ------------------------------------------------------------------

    def posting_count(self) -> int:
        return sum(len(p) for p in self._postings.values())

    def byte_size(self) -> int:
        """Modelled storage: 4-byte gram hash per distinct gram plus a
        4-byte nid per posting."""
        return 4 * len(self._postings) + 4 * self.posting_count()

    def gram_distribution(self) -> dict[int, int]:
        """posting-list length -> number of grams (selectivity probe)."""
        return dict(Counter(len(p) for p in self._postings.values()))
