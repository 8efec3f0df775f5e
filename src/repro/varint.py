"""LEB128 varints: the variable-length integer encoding of the on-disk
formats (WAL records, packed index fields).

A leaf module so that both :mod:`repro.storage` and the index classes
in :mod:`repro.core` (which pack their own fields) can use it.
"""

from __future__ import annotations

from .errors import FormatError

__all__ = ["encode_varint", "decode_varint"]


def encode_varint(value: int) -> bytes:
    """LEB128-encode a non-negative integer of any size."""
    if value < 0:
        raise ValueError("varints are unsigned")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(payload: bytes, offset: int) -> tuple[int, int]:
    """Decode a varint at ``offset``; returns (value, next offset)."""
    result = 0
    shift = 0
    while True:
        if offset >= len(payload):
            raise FormatError("truncated varint")
        byte = payload[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
