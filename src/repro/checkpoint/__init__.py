"""Checkpoint store (raw payload + layout sidecar, the one format) +
in-memory provider cache and async write-behind extensions."""

from .cache import WeightCache
from .multilevel import AsyncCheckpointWriter
from .sharded import ShardedCheckpointStore
from .store import (
    CheckpointInfo,
    CheckpointStore,
    CorruptCheckpointError,
    payload_nbytes,
)

__all__ = [
    "CheckpointStore",
    "CheckpointInfo",
    "CorruptCheckpointError",
    "AsyncCheckpointWriter",
    "WeightCache",
    "ShardedCheckpointStore",
    "payload_nbytes",
]
