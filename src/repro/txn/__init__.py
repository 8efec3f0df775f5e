"""Transactions over the value indices (paper Section 5.1).

:class:`TransactionManager` is the paper's design — optimistic,
ancestor-lock-free, relying on the commutativity of ``C``.  The naive
ancestor-locking baseline it beats lives with the other ablation
baselines in :mod:`repro.bench.ablations`.
"""

from .manager import Transaction, TransactionManager

__all__ = ["Transaction", "TransactionManager"]
