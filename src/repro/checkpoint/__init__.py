"""Checkpoint store (raw payload + layout sidecar; legacy npz archives
still load) + cache/prefetch/async multi-level extensions."""

from .cache import DEFAULT_CACHE_BYTES, WeightCache, make_cache, weights_nbytes
from .multilevel import AsyncCheckpointWriter, MultiLevelStore
from .prefetch import ProviderPrefetcher
from .sharded import ShardBreaker, ShardedCheckpointStore, StoreUnavailableError
from .store import CheckpointInfo, CheckpointStore, CorruptCheckpointError

__all__ = [
    "CheckpointStore",
    "CheckpointInfo",
    "CorruptCheckpointError",
    "AsyncCheckpointWriter",
    "MultiLevelStore",
    "WeightCache",
    "ProviderPrefetcher",
    "ShardBreaker",
    "ShardedCheckpointStore",
    "StoreUnavailableError",
    "make_cache",
    "weights_nbytes",
    "DEFAULT_CACHE_BYTES",
]
