"""Sorted-set substrate shared by every value index (string, typed,
substring): the :class:`SortedRun` they sit on and the copy-on-write
:class:`BPlusTree` that is its delta."""

from .bplus import BPlusTree
from .sorted_run import SortedRun

__all__ = ["BPlusTree", "SortedRun"]
