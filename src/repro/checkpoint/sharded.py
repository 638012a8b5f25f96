"""A retired name: checkpoints live in one :class:`CheckpointStore`.

The consistent-hash shard ring and its per-shard circuit breakers made
a store fault worse, not better (DESIGN.md "Sharded store, retired"):
a failed save is one ``ckpt_write`` fault and the candidate's children
start cold, as on any store.  This subclass stays only because the
benchmark's ``svc-mix`` workload still builds one; it goes with the
other kept names once that workload is retargeted (ROADMAP.md item 1
step 1).
"""

from __future__ import annotations

from .store import CheckpointStore

__all__ = ["ShardedCheckpointStore"]


class ShardedCheckpointStore(CheckpointStore):
    """A plain :class:`CheckpointStore` at ``root``; ``num_shards`` is
    validated and otherwise ignored."""

    def __init__(self, root, num_shards: int = 4):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        super().__init__(root)

    # ``save`` and ``load`` stay in the class body: the benchmark's
    # traced runs patch them through ``owner.__dict__[attr]``.
    def save(self, key, weights, meta=None):
        return super().save(key, weights, meta)

    def load(self, key):
        return super().load(key)
