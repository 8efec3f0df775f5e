"""Low-level binary file format helpers.

The on-disk format is deliberately simple and self-describing:

* every file starts with the magic ``RXDB`` and a format version;
* the body is a sequence of *sections*: a 4-byte ASCII tag, a little-
  endian ``u64`` payload length, and the payload bytes;
* integer columns are stored as little-endian numpy arrays; variable
  payloads use LEB128 varints.

No pickle anywhere: the files contain only data, never code.
"""

from __future__ import annotations

import struct
from typing import BinaryIO, Iterator

import numpy as np

from ..errors import FormatError
from ..varint import decode_varint, encode_varint

__all__ = [
    "FormatError",
    "MAGIC",
    "VERSION",
    "SUPPORTED_VERSIONS",
    "write_header",
    "read_header",
    "write_section",
    "read_sections",
    "pack_array",
    "unpack_array",
    "encode_varint",
    "decode_varint",
]

MAGIC = b"RXDB"
VERSION = 1

#: Header versions this reader understands.  Version 1 is the original
#: section format (documents, indices, unframed WAL records); version 2
#: marks a CRC-framed WAL body.  Data files keep writing version 1 (the
#: section layout is unchanged); readers accept both.
SUPPORTED_VERSIONS = frozenset({1, 2})


def write_header(fh: BinaryIO, version: int = VERSION) -> None:
    fh.write(MAGIC)
    fh.write(struct.pack("<I", version))


def read_header(fh: BinaryIO) -> int:
    magic = fh.read(4)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}; not a repro database file")
    raw = fh.read(4)
    if len(raw) != 4:
        raise FormatError("truncated header")
    (version,) = struct.unpack("<I", raw)
    if version not in SUPPORTED_VERSIONS:
        raise FormatError(f"unsupported format version {version}")
    return version


def write_section(fh: BinaryIO, tag: str, payload: bytes) -> None:
    encoded = tag.encode("ascii")
    if len(encoded) != 4:
        raise ValueError(f"section tag must be 4 ASCII bytes, got {tag!r}")
    fh.write(encoded)
    fh.write(struct.pack("<Q", len(payload)))
    fh.write(payload)


def read_sections(fh: BinaryIO) -> Iterator[tuple[str, bytes]]:
    """Yield (tag, payload) until end of file."""
    while True:
        tag = fh.read(4)
        if not tag:
            return
        if len(tag) != 4:
            raise FormatError("truncated section tag")
        raw_len = fh.read(8)
        if len(raw_len) != 8:
            raise FormatError("truncated section length")
        (length,) = struct.unpack("<Q", raw_len)
        payload = fh.read(length)
        if len(payload) != length:
            raise FormatError(f"truncated section {tag!r}")
        yield tag.decode("ascii"), payload


def pack_array(values, dtype: str) -> bytes:
    """Pack a Python sequence as a little-endian numpy array."""
    return np.asarray(values, dtype=np.dtype(dtype).newbyteorder("<")).tobytes()


def unpack_array(payload: bytes, dtype: str) -> list:
    """Inverse of :func:`pack_array` (returns a Python list)."""
    return np.frombuffer(payload, dtype=np.dtype(dtype).newbyteorder("<")).tolist()
