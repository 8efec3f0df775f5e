"""Sorted-set substrate shared by every value index (string, typed,
substring): the :class:`SortedRun` they sit on, frozen numpy columns
for the base run and for its delta."""

from .sorted_run import SortedRun

__all__ = ["SortedRun"]
