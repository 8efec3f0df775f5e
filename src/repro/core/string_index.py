"""The string equality index (paper Section 3).

Covers *every* document, element, attribute and text node: each node
stores the 32-bit hash of its XDM string value, and a sorted run over
``(hash, nid)`` supports equality lookups.  A lookup returns candidate
nodes for a hash; the caller verifies candidates against the actual
string value to filter hash collisions (Section 6: "keeping the false
positives — due to hash collisions — during query time to a minimum").

Index maintenance never reads document text except for the updated
text nodes themselves: ancestors recombine from their children's
stored hashes with the associative ``C`` (see
:mod:`repro.core.updater`).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..btree import SortedRun
from .hashing import EMPTY_HASH, combine, hash_string, hash_strings
from .statistics import StringIndexStatistics
from .value_index import ValueIndex

__all__ = ["StringIndex"]


class StringIndex(ValueIndex):
    """Equality index on string values via the hash function H.

    Every field is stored and is its own tree key, so the run sorted on
    ``(hash, nid)`` answers an equality lookup with one range scan.
    """

    identity = EMPTY_HASH
    column = (".sidx", "HASH")
    statistics_type = StringIndexStatistics

    def __init__(self):
        super().__init__("string", SortedRun("<u4"))
        #: nid -> stored hash (this index's name for its field map).
        self.hash_of = self.fields

    def field_of_text(self, text: str) -> int:
        """H(text) — the field of a text/attribute node."""
        return hash_string(text)

    def field_of_texts(self, texts: list[str]) -> list[int]:
        """Vectorised batch form of :meth:`field_of_text`."""
        return hash_strings(texts)

    def combine(self, left: int, right: int) -> int:
        """C(left, right) — fold a child's field into an accumulator."""
        return combine(left, right)

    def pack_fields(self, fields: list[int]) -> bytes:
        return np.asarray(fields, dtype="<u4").tobytes()

    def unpack_fields(self, payload: bytes, count: int) -> list[int]:
        return np.frombuffer(payload, dtype="<u4").tolist()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def lookup_hash(self, hash_value: int) -> Iterator[int]:
        """All nids whose string value hashes to ``hash_value``,
        ascending."""
        nids = self._lookup_tree().nids_between(hash_value, hash_value)
        return iter(np.sort(nids).tolist())

    def candidates(self, value: str) -> Iterator[int]:
        """Candidate nids for an equality predicate on ``value``.

        May contain false positives (hash collisions); callers verify
        against the document.
        """
        return self.lookup_hash(hash_string(value))

    def candidate_nids(self, value: str) -> "np.ndarray":
        """Batched :meth:`candidates`: the same unverified hash-bucket
        contents as an int64 array (two ``searchsorted`` and a slice of
        the run's nid column)."""
        hash_value = hash_string(value)
        return self._lookup_tree().nids_between(hash_value, hash_value)

    # ------------------------------------------------------------------
    # Statistics / storage model
    # ------------------------------------------------------------------

    def byte_size(self) -> int:
        """Modelled storage: a 4-byte hash per indexed node.

        This matches the paper's accounting — XMark1's reported string
        index (17.8 MB over 4.69 M nodes) is 4 bytes/node: the hash
        column is the index; nids come from the clustered order.
        """
        return 4 * len(self.hash_of)
