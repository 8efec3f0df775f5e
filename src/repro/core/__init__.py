"""The paper's primary contribution: generic updatable XML value indices."""

from .builder import build_document, compute_fields
from .hashing import EMPTY_HASH, HashAccumulator, combine, combine_all, hash_string
from .manager import IndexManager
from .string_index import StringIndex
from .substring_index import SubstringIndex
from .typed_index import TypedIndex
from .updater import apply_structural_change, apply_text_updates
from .value_index import ValueIndex

__all__ = [
    "EMPTY_HASH",
    "HashAccumulator",
    "IndexManager",
    "StringIndex",
    "SubstringIndex",
    "TypedIndex",
    "ValueIndex",
    "apply_structural_change",
    "apply_text_updates",
    "build_document",
    "combine",
    "combine_all",
    "compute_fields",
    "hash_string",
]
