"""Shard-per-core engine: embeddable shard cores + a coordinator.

The package splits the serving engine into three layers
(``docs/sharding.md`` is the spec):

* :mod:`repro.shard.engine` — :class:`ShardEngine`, the embeddable
  single-shard core: documents, indices, WAL, group-commit leader and
  MVCC controller.  :class:`repro.database.Database` is a thin
  single-shard facade over it.
* :mod:`repro.shard.worker` — one shard core behind the wire protocol
  in its own OS process (the unit the coordinator scales out over).
* :mod:`repro.shard.coordinator` — :class:`ShardCluster`: partitions a
  corpus across shards by document, routes updates to the owning
  shard, scatters queries and k-way merges the per-shard row batches,
  and pins cross-shard read views on a consistent epoch vector.  The
  cluster is elastic: live document migration, greedy
  rebalancing and resize (``docs/sharding.md``, "Elastic shards").
"""

from .coordinator import (
    ClusterView,
    DocumentMovedError,
    ShardCluster,
    ShardDownError,
    ShardError,
    greedy_balance,
)
from .engine import RecoveryReport, ShardEngine
from .manifest import ShardingManifest

__all__ = [
    "ClusterView",
    "DocumentMovedError",
    "RecoveryReport",
    "ShardCluster",
    "ShardDownError",
    "ShardError",
    "ShardEngine",
    "ShardingManifest",
    "greedy_balance",
]
