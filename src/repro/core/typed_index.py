"""The typed range index (paper Section 4).

For one XML type (double, dateTime, ...) the index keeps:

* per non-rejected node, its FSM state plus the compact token payload
  (:class:`~repro.core.fsm.fragment.Fragment`) — the paper's
  ``[node id, state]`` side structure;
* a sorted run on ``(typed value, nid)`` over the nodes whose
  fragment is a complete ("castable") lexical value — the paper's
  clustered ``[value, state, node id]`` tuples supporting range
  lookups.

Nodes whose value is rejected by the FSM store *nothing* ("the absence
of a state signifies the reject state"), which is why the double index
stays at 2-3% of database size in the paper's Figure 9.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Iterator

import numpy as np

from ..btree import SortedRun
from ..varint import decode_varint, encode_varint
from .classify import legality_mask
from .fsm import Fragment, REJECT_FRAGMENT, TypePlugin, get_plugin
from .statistics import TypedIndexStatistics
from .value_index import ValueIndex

__all__ = ["TypedIndex", "pack_fragment", "unpack_fragment"]

_MAX_NID = 1 << 62


def pack_fragment(plugin: TypePlugin, fragment: Fragment) -> bytes:
    """On-disk bytes of one stored fragment: state and token count as
    varints, then per token its class id and class-specific payload."""
    out = bytearray(encode_varint(fragment.state))
    out += encode_varint(len(fragment.tokens))
    for cid, payload, length in fragment.tokens:
        out.append(cid)
        if cid in plugin.run_class_ids:
            out += encode_varint(payload)
            out += encode_varint(length)
        elif cid in plugin.char_class_ids:
            out += payload.encode("utf-8")
    return bytes(out)


def unpack_fragment(
    plugin: TypePlugin, payload: bytes, offset: int
) -> tuple[Fragment, int]:
    """Inverse of :func:`pack_fragment` at ``offset``; returns the
    fragment and the offset just past it."""
    state, offset = decode_varint(payload, offset)
    count, offset = decode_varint(payload, offset)
    tokens = []
    for _ in range(count):
        cid = payload[offset]
        offset += 1
        if cid in plugin.run_class_ids:
            value, offset = decode_varint(payload, offset)
            length, offset = decode_varint(payload, offset)
            tokens.append((cid, value, length))
        elif cid in plugin.char_class_ids:
            # The packer wrote the character's full UTF-8 encoding;
            # consume exactly that many bytes (a single-byte read would
            # misalign the rest of the stream for non-ASCII payloads).
            first = payload[offset]
            if first < 0x80:
                width = 1
            elif first >= 0xF0:
                width = 4
            elif first >= 0xE0:
                width = 3
            else:
                width = 2
            char = payload[offset : offset + width].decode("utf-8")
            tokens.append((cid, char, 1))
            offset += width
        else:
            tokens.append((cid, None, 1))
    return Fragment(state, tuple(tokens)), offset


class TypedIndex(ValueIndex):
    """Range index over one XML type's castable values.

    A field (FSM fragment) is stored iff its state is not the reject
    state; its one tree key is the typed value it casts to, if any.
    """

    absent = REJECT_FRAGMENT
    statistics_type = TypedIndexStatistics

    def __init__(self, type_name: str):
        # Only xs:double casts to what an f8 column holds exactly;
        # Decimal, unbounded int and bool keys stay Python objects.
        dtype = np.float64 if type_name == "double" else object
        super().__init__(type_name, SortedRun(dtype))
        self.plugin = get_plugin(type_name)
        self.identity = self.plugin.empty_fragment
        self.column = (f".{type_name}.tidx", "FRAG")
        #: nid -> Fragment, for non-rejected nodes only (this index's
        #: name for its field map).
        self.fragment_of_node = self.fields

    def field_of_text(self, text: str) -> Fragment:
        """Run the FSM over a text value (paper Figure 7, line 7)."""
        return self.plugin.fragment_of_text(text)

    def field_of_texts(self, texts: list[str]) -> list[Fragment]:
        """Batch form of :meth:`field_of_text`.

        Classifies all texts at once with the vectorized region kernel
        (:func:`repro.core.classify.legality_mask`): texts carrying any
        character outside the type's alphabet — the vast majority —
        reject without ever running the scalar tokenizer.
        """
        mask = legality_mask(self.plugin, texts)
        fragment_of_text = self.plugin.fragment_of_text
        if mask is None:
            return [fragment_of_text(text) for text in texts]
        return [
            fragment_of_text(text) if legal else REJECT_FRAGMENT
            for text, legal in zip(texts, mask)
        ]

    def combine(self, left: Fragment, right: Fragment) -> Fragment:
        """SCT probe + payload merge (paper Figure 7, lines 14/18)."""
        return self.plugin.combine(left, right)

    def stores(self, field: Fragment) -> bool:
        return field.state != 0

    def keys_of(self, field: Fragment) -> tuple:
        value = self.plugin.cast(field)
        return () if value is None else (value,)

    def value_of(self, nid: int) -> Any:
        """Typed value of a node, or ``None`` if it has none."""
        return self.plugin.cast(self.field_of(nid))

    def pack_fields(self, fields: list[Fragment]) -> bytes:
        plugin = self.plugin
        return b"".join(pack_fragment(plugin, field) for field in fields)

    def unpack_fields(self, payload: bytes, count: int) -> list[Fragment]:
        fields = []
        offset = 0
        for _ in range(count):
            field, offset = unpack_fragment(self.plugin, payload, offset)
            fields.append(field)
        return fields

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def lookup_equal(self, value: Any) -> Iterator[int]:
        """nids whose typed value equals ``value`` (no false positives),
        ascending."""
        nids = self._lookup_tree().nids_between(value, value)
        return iter(np.sort(nids).tolist())

    def lookup_range(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[tuple[Any, int]]:
        """(value, nid) pairs with ``low <op> value <op> high``."""
        low_key = None if low is None else (low, -1 if include_low else _MAX_NID)
        high_key = None if high is None else (high, _MAX_NID if include_high else -1)
        cursor = self._lookup_tree().range(
            low_key, high_key, include_low=True, include_high=include_high
        )
        return map(itemgetter(0), cursor)  # ((value, nid), None) pairs

    def range_nids(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> "np.ndarray":
        """Batched :meth:`lookup_range` returning just the nids, as an
        int64 array in no particular order: two ``searchsorted`` and a
        slice of the run's nid column — the index-scan primitive of
        the query executor.
        """
        return self._lookup_tree().nids_between(
            low, high, include_low, include_high
        )

    def top_values(
        self, k: int, largest: bool = True
    ) -> list[tuple[Any, int]]:
        """The ``k`` extreme (value, nid) entries of the value run.

        ``largest=True`` walks the run right-to-left (descending
        values); ``False`` returns the smallest entries ascending.
        """
        if k <= 0:
            return []
        tree = self._lookup_tree()
        entries = tree.items_reversed() if largest else tree.items()
        result = []
        for (value, nid), _none in entries:
            result.append((value, nid))
            if len(result) == k:
                break
        return result

    # ------------------------------------------------------------------
    # Statistics / storage model
    # ------------------------------------------------------------------

    def potential_count(self) -> int:
        """Nodes with a stored (non-rejected) state."""
        return len(self.fragment_of_node)

    def castable_count(self) -> int:
        """Nodes with a complete typed value in the value tree."""
        return len(self.tree)

    def byte_size(self) -> int:
        """Modelled storage: 8 bytes per indexed value plus the
        per-node state/payload bytes for every stored fragment —
        mirroring the paper's [value, state] accounting (their XMark1
        double index is ~9 bytes per indexed node: an 8-byte double +
        1-byte state; a sorted run has no inner levels to add)."""
        size = 8 * len(self.tree)
        byte_size_of = self.plugin.byte_size_of
        for fragment in self.fragment_of_node.values():
            size += byte_size_of(fragment)
        return size
