"""Index statistics for cost-based query planning.

The paper's indices always *can* answer a value predicate; whether they
*should* is a selectivity question: an unselective range (``price > 0``
matches everything) is cheaper to answer by scanning than by walking
the index and verifying every candidate's structure.  This module
provides the estimates the planner's ``auto`` mode uses:

* an equi-depth histogram over a typed index's values (range and
  equality selectivity);
* hash-bucket statistics for the string index (equality selectivity).

Statistics are snapshots: they record the index's mutation counter at
build time and are recomputed by the manager once the index has folded
its delta since (one drift rule, in
:class:`~repro.core.value_index.ValueIndex`).  They are read off the
index's sorted key column — a strided slice and an ``np.unique`` —
never off a scan of its entries.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

__all__ = [
    "EquiDepthHistogram",
    "TypedIndexStatistics",
    "StringIndexStatistics",
]


class EquiDepthHistogram:
    """Equi-depth histogram over an ordered multiset of values.

    Bucket boundaries hold (approximately) equal numbers of entries, so
    skewed distributions keep uniform per-bucket resolution.
    """

    def __init__(self, values: Sequence[Any], buckets: int = 32):
        if buckets < 1:
            raise ValueError("need at least one bucket")
        self.total = len(values)
        self._bounds: list[Any] = []
        if not self.total:
            return
        # A stable sort is linear on an index's key column, which
        # arrives sorted; the values stay one numpy column throughout.
        ordered = np.sort(np.asarray(values), kind="stable")
        step = max(1, self.total // buckets)
        # bounds[i] = upper value of bucket i; depth per bucket = step:
        # one strided gather (behind the minimum).
        picks = np.minimum(
            np.arange(-1, self.total + step - 1, step), self.total - 1
        )
        picks[0] = 0
        picked = ordered[picks].tolist()
        self.minimum = picked[0]
        self._bounds = picked[1:]
        self.maximum = picked[-1]
        self._depth = step

    def estimate_less_equal(self, value: Any) -> float:
        """Estimated number of entries <= value."""
        if not self._bounds:
            return 0.0
        if value < self.minimum:
            return 0.0
        if value >= self.maximum:
            return float(self.total)
        bucket = bisect.bisect_left(self._bounds, value)
        # Everything in full buckets below, half of the hit bucket.
        return min(float(self.total), bucket * self._depth + self._depth / 2)

    def estimate_range(self, low: Any = None, high: Any = None) -> float:
        """Estimated number of entries in [low, high]."""
        if not self._bounds:
            return 0.0
        upper = (
            float(self.total) if high is None else self.estimate_less_equal(high)
        )
        lower = 0.0
        if low is not None:
            lower = self.estimate_less_equal(low)
            # Subtracting <=low removes low itself; give back one
            # bucket-average worth of equals.
            lower = max(0.0, lower - self.estimate_equal(low))
        return max(0.0, upper - lower)

    def estimate_equal(self, value: Any) -> float:
        """Estimated number of entries equal to value."""
        if not self._bounds:
            return 0.0
        if value < self.minimum or value > self.maximum:
            return 0.0
        # Uniformity within the bucket: depth / distinct-in-bucket is
        # unknown, so assume each bucket holds `depth` entries spread
        # over at least one distinct value.
        span = bisect.bisect_right(self._bounds, value) - bisect.bisect_left(
            self._bounds, value
        )
        return max(1.0, float(span * self._depth), self._depth / 8)


@dataclass
class TypedIndexStatistics:
    """Snapshot statistics of one typed index."""

    histogram: EquiDepthHistogram
    mutations: int

    @classmethod
    def from_tree(
        cls, tree, mutations: int, buckets: int = 32
    ) -> "TypedIndexStatistics":
        """Build from the index's value run; ``mutations`` is the
        index's mutation counter at build time (drift-based refresh)."""
        keys, _nids = tree.columns()
        return cls(
            histogram=EquiDepthHistogram(keys, buckets),
            mutations=mutations,
        )

    def estimate(self, op: str, literal: Any) -> float:
        """Estimated candidates for ``value <op> literal``."""
        histogram = self.histogram
        if op == "=":
            return histogram.estimate_equal(literal)
        if op == "<=":
            return histogram.estimate_less_equal(literal)
        if op == "<":
            return max(
                0.0,
                histogram.estimate_less_equal(literal)
                - histogram.estimate_equal(literal),
            )
        if op == ">=":
            return max(
                0.0, histogram.total - self.estimate("<", literal)
            )
        if op == ">":
            return max(0.0, histogram.total - self.estimate("<=", literal))
        return float(histogram.total)


@dataclass
class StringIndexStatistics:
    """Snapshot statistics of the string equality index."""

    entries: int
    distinct_hashes: int
    mutations: int

    @classmethod
    def from_tree(cls, tree, mutations: int) -> "StringIndexStatistics":
        """Build from the index's run of ``(hash, nid)`` entries.
        ``mutations`` as for the typed statistics."""
        keys, _nids = tree.columns()
        return cls(
            entries=len(keys),
            distinct_hashes=max(1, len(np.unique(keys))),
            mutations=mutations,
        )

    def estimate_equal(self) -> float:
        """Expected candidates per equality lookup (avg bucket size)."""
        return self.entries / self.distinct_hashes
