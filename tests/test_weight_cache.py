"""WeightCache (LRU byte budget and entry cap, counters, thread-safety)."""

import threading

import numpy as np
import pytest

from repro.checkpoint import WeightCache, weights_nbytes


def weights(seed=0, n=64):
    rng = np.random.default_rng(seed)
    return {"d.kernel": rng.normal(size=(n, 4)).astype(np.float32),
            "d.bias": rng.normal(size=4).astype(np.float32)}


ENTRY_BYTES = weights_nbytes(weights())


def test_hit_miss_counters_and_round_trip():
    cache = WeightCache(max_bytes=10 * ENTRY_BYTES)
    assert cache.get("a") is None
    w = weights(1)
    assert cache.put("a", w)
    got = cache.get("a")
    assert all(np.array_equal(got[k], w[k]) for k in w)
    assert (cache.hits, cache.misses) == (1, 1)
    assert cache.hit_rate == 0.5
    assert "a" in cache and "b" not in cache
    assert cache.current_bytes == ENTRY_BYTES


def test_handed_out_views_are_read_only():
    cache = WeightCache(max_bytes=10 * ENTRY_BYTES)
    src = weights()
    cache.put("a", src)
    got = cache.get("a")
    with pytest.raises(ValueError):
        got["d.bias"][0] = 99.0
    # zero-copy: the frozen views share the caller's arrays, which
    # stay writable
    assert np.shares_memory(got["d.kernel"], src["d.kernel"])
    assert src["d.kernel"].flags.writeable


def test_lru_eviction_at_byte_budget():
    cache = WeightCache(max_bytes=3 * ENTRY_BYTES)
    for i, key in enumerate("abc"):
        cache.put(key, weights(i))
    assert len(cache) == 3
    cache.get("a")                       # refresh "a" → "b" is now LRU
    cache.put("d", weights(3))
    assert "b" not in cache
    assert all(k in cache for k in "acd")
    assert cache.evictions == 1
    assert cache.current_bytes <= cache.max_bytes


def test_lru_eviction_at_entry_cap():
    cache = WeightCache(max_bytes=10 * ENTRY_BYTES, max_entries=2)
    cache.put("a", weights(0))
    cache.put("b", weights(1))
    cache.get("a")                       # refresh "a" → "b" is now LRU
    cache.put("c", weights(2))
    assert "b" not in cache and len(cache) == 2
    assert cache.evictions == 1
    assert cache.stats()["max_entries"] == 2


def test_oversize_payload_rejected():
    cache = WeightCache(max_bytes=ENTRY_BYTES // 2)
    assert not cache.put("big", weights())
    assert "big" not in cache
    assert cache.oversize_rejects == 1
    assert cache.current_bytes == 0


def test_refresh_replaces_and_keeps_budget_exact():
    cache = WeightCache(max_bytes=10 * ENTRY_BYTES)
    cache.put("a", weights(0))
    cache.put("a", weights(1, n=32))     # smaller refresh
    assert cache.current_bytes == weights_nbytes(weights(1, n=32))
    assert len(cache) == 1


def test_stats_and_discard_and_clear():
    cache = WeightCache(max_bytes=10 * ENTRY_BYTES)
    cache.put("a", weights(0))
    cache.put("b", weights(1))
    cache.discard("a")
    assert "a" not in cache
    assert cache.current_bytes == ENTRY_BYTES
    s = cache.stats()
    assert s["entries"] == 1 and s["insertions"] == 2
    cache.clear()
    assert len(cache) == 0 and cache.current_bytes == 0


def test_thread_safety_under_concurrent_get_put():
    cache = WeightCache(max_bytes=8 * ENTRY_BYTES)
    errors = []

    def hammer(tid):
        try:
            rng = np.random.default_rng(tid)
            for i in range(200):
                key = f"k{rng.integers(0, 16)}"
                if rng.random() < 0.5:
                    cache.put(key, weights(int(rng.integers(0, 4))))
                else:
                    got = cache.get(key)
                    if got is not None:
                        assert set(got) == {"d.kernel", "d.bias"}
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(t,)) for t in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert cache.current_bytes <= cache.max_bytes
    assert cache.current_bytes == sum(
        e.nbytes for e in cache._entries.values())



def test_non_positive_budget_is_rejected():
    with pytest.raises(ValueError, match="max_bytes"):
        WeightCache(max_bytes=0)
    with pytest.raises(ValueError, match="max_entries"):
        WeightCache(max_entries=0)
