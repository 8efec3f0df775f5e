"""The sharding manifest: which shard owns which document.

A sharded deployment is a directory holding one subdirectory per shard
(each an ordinary :class:`~repro.shard.engine.ShardEngine` directory
with its own ``MANIFEST.json`` and WAL) plus one ``SHARDING.json`` at
the root — the :class:`ShardingManifest` — recording the cluster
layout:

* ``shards`` — how many shards the corpus is split over;
* ``placement`` — document name → owning shard (explicit placements
  win; anything else falls to a deterministic hash of the name);
* ``doc_order`` — every document in *global load order*.  Single-shard
  query results are ordered by document insertion order then pre
  within the document; the coordinator reproduces exactly that order
  across shards by merging on ``(global doc index, pre)``, so the
  order documents were loaded in must be a cluster-level fact, not a
  per-shard one;
* ``config`` — the index configuration every shard was created with.
* ``version`` — a monotonic counter bumped by every placement change
  (place, unplace, move, resize).  The coordinator registers the
  version each read plan was snapshotted at, and keeps a copy a flip
  or an unload superseded until no older plan is left — see
  ``docs/sharding.md``.

The file is written atomically and durably (temp + fsync + rename +
directory fsync, the per-shard manifests' path in
:mod:`repro.storage.persist`) and re-written whenever a document is
placed, unloaded or moved, i.e. checkpointed alongside each shard's
own manifest.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Any

from ..storage.persist import _atomic_write, _fsync_dir

__all__ = ["ShardingManifest", "SHARDING_FILE"]

SHARDING_FILE = "SHARDING.json"
_FORMAT_VERSION = 1


def _hash_shard(name: str, shards: int) -> int:
    # crc32 rather than hash(): stable across processes and runs
    # (PYTHONHASHSEED randomizes str.__hash__), so every coordinator
    # restart routes a name to the same shard.
    return zlib.crc32(name.encode("utf-8")) % shards


class ShardingManifest:
    """In-memory mirror of ``SHARDING.json`` (see module docstring)."""

    def __init__(self, shards: int,
                 config: dict[str, Any] | None = None):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        self.config: dict[str, Any] = dict(config or {})
        self.placement: dict[str, int] = {}
        self.doc_order: list[str] = []
        self.version = 0

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def shard_of(self, name: str) -> int:
        """The shard that owns (or would own) ``name``."""
        try:
            return self.placement[name]
        except KeyError:
            return _hash_shard(name, self.shards)

    def place(self, name: str, shard: int | None = None) -> int:
        """Record ``name`` as placed, on ``shard`` when given (explicit
        placement) or on its hash shard otherwise.  Re-placing an
        already-placed document on a *different* shard is an error —
        moving a live document is :meth:`move` (which preserves the
        global load order), not a re-place."""
        target = self.shard_of(name) if shard is None else shard
        if not 0 <= target < self.shards:
            raise ValueError(
                f"shard {target} out of range for {self.shards} shards"
            )
        current = self.placement.get(name)
        if current is not None and current != target:
            raise ValueError(
                f"document {name!r} already placed on shard {current}"
            )
        self.placement[name] = target
        if name in self.doc_order:
            self.doc_order.remove(name)
        self.doc_order.append(name)
        self.version += 1
        return target

    def unplace(self, name: str) -> int:
        shard = self.placement.pop(name)
        self.doc_order.remove(name)
        self.version += 1
        return shard

    def move(self, name: str, shard: int) -> int:
        """Re-home an already-placed document onto ``shard``.

        Unlike unplace + place this keeps ``name``'s position in
        ``doc_order`` — a migration changes *where* a document lives,
        never the global result order — and bumps ``version`` exactly
        once, so the flip is a single atomic layout transition.
        Returns the previous owner.
        """
        if not 0 <= shard < self.shards:
            raise ValueError(
                f"shard {shard} out of range for {self.shards} shards"
            )
        try:
            current = self.placement[name]
        except KeyError:
            raise ValueError(f"document {name!r} is not placed") from None
        self.placement[name] = shard
        self.version += 1
        return current

    def set_shards(self, shards: int) -> None:
        """Change the shard count (the resize flip).

        Every placement must already fit inside the new range — the
        coordinator drains documents off doomed shards *before*
        shrinking, so a manifest never references a shard that no
        longer exists.
        """
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        stranded = sorted(
            n for n, s in self.placement.items() if s >= shards
        )
        if stranded:
            raise ValueError(
                f"cannot shrink to {shards} shards: documents still "
                f"placed on removed shards: {', '.join(stranded)}"
            )
        self.shards = shards
        self.version += 1

    def documents_on(self, shard: int) -> list[str]:
        """Documents owned by ``shard``, in global load order."""
        return [n for n in self.doc_order if self.placement[n] == shard]

    def global_index(self, name: str) -> int:
        """Position of ``name`` in the global load order — the major
        merge key for cross-shard result ordering."""
        return self.doc_order.index(name)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "format": _FORMAT_VERSION,
            "shards": self.shards,
            "config": self.config,
            "placement": self.placement,
            "doc_order": list(self.doc_order),
            "version": self.version,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ShardingManifest":
        if data.get("format") != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported sharding manifest format {data.get('format')!r}"
            )
        manifest = cls(int(data["shards"]), config=data.get("config") or {})
        manifest.placement = {
            str(k): int(v) for k, v in data.get("placement", {}).items()
        }
        manifest.doc_order = [str(n) for n in data.get("doc_order", [])]
        if sorted(manifest.doc_order) != sorted(manifest.placement):
            raise ValueError("sharding manifest: doc_order != placement keys")
        # Manifests written before elasticity carry no version; they
        # have by definition never seen a placement change race, so 0
        # (strictly below any bumped version) is the right basis.
        manifest.version = int(data.get("version", 0))
        return manifest

    def save(self, root: str) -> None:
        """Atomically and durably write ``SHARDING.json`` under
        ``root``."""
        os.makedirs(root, exist_ok=True)
        data = json.dumps(self.to_dict(), sort_keys=True).encode("utf-8")
        _atomic_write(os.path.join(root, SHARDING_FILE), data,
                      "sharding.manifest")
        _fsync_dir(root)

    @classmethod
    def load(cls, root: str) -> "ShardingManifest":
        with open(os.path.join(root, SHARDING_FILE), encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    @classmethod
    def exists(cls, root: str) -> bool:
        return os.path.exists(os.path.join(root, SHARDING_FILE))

    def shard_dir(self, root: str, shard: int) -> str:
        return os.path.join(root, f"shard-{shard:03d}")
