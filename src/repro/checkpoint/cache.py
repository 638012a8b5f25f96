"""In-memory LRU weight cache layered over a checkpoint store.

Evolutionary search re-selects the same providers constantly (a fit
parent breeds many children), so the same checkpoint is re-read and
re-deserialized from disk once per child.  :class:`WeightCache` keeps
the ``max_entries`` most recently touched weight dicts in memory: a hit
skips disk entirely and costs a dict lookup.  The search driver caps
its cache at the strategy's population, the only members a child's
parent can come from, so memory is bounded by that many of the largest
checkpoints.

Thread-safety: every operation takes the internal lock and acquires no
other lock while holding it, so one cache may be shared between
searches and read from any thread.  Cached arrays are handed out as
**read-only views** of the stored arrays (zero-copy):
``transfer_weights`` copies matched tensors into the receiver anyway,
and the read-only flag turns any accidental in-place mutation of
shared cache state into an immediate ``ValueError`` instead of silent
cross-candidate corruption.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

import numpy as np

from ..analysis.lockcheck import make_lock


class WeightCache:
    """Thread-safe LRU over checkpoint weight dicts, capped at
    ``max_entries`` entries."""

    def __init__(self, max_entries: int):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = int(max_entries)
        self._lock = make_lock("WeightCache._lock")
        self._entries: "OrderedDict[str, dict]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.insertions = 0

    def get(self, key: str) -> Optional[dict]:
        """The cached weight dict (read-only array views), or ``None``."""
        with self._lock:
            weights = self._entries.get(key)
            if weights is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return dict(weights)

    def put(self, key: str, weights: dict) -> None:
        """Insert (or refresh) ``key`` as most recently used, evicting
        the least recently used entries beyond the cap."""
        frozen = {}
        for name, arr in weights.items():
            view = np.asarray(arr).view()
            view.flags.writeable = False
            frozen[name] = view
        with self._lock:
            self._entries.pop(key, None)
            self._entries[key] = frozen
            self.insertions += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def stats(self) -> dict:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "insertions": self.insertions,
                "entries": len(self._entries),
                "max_entries": self.max_entries,
            }
