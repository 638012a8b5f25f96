"""WeightCache (LRU entry cap, counters, read-only views, thread-safety)."""

import threading
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import WeightCache


def weights(seed=0, n=64):
    rng = np.random.default_rng(seed)
    return {"d.kernel": rng.normal(size=(n, 4)).astype(np.float32),
            "d.bias": rng.normal(size=4).astype(np.float32)}


def test_hit_miss_counters_and_round_trip():
    cache = WeightCache(max_entries=4)
    assert cache.get("a") is None
    w = weights(1)
    cache.put("a", w)
    got = cache.get("a")
    assert all(np.array_equal(got[k], w[k]) for k in w)
    assert (cache.hits, cache.misses) == (1, 1)
    assert cache.stats() == {"hits": 1, "misses": 1, "evictions": 0,
                             "insertions": 1, "entries": 1,
                             "max_entries": 4}


def test_handed_out_views_are_read_only():
    cache = WeightCache(max_entries=4)
    src = weights()
    cache.put("a", src)
    got = cache.get("a")
    with pytest.raises(ValueError):
        got["d.bias"][0] = 99.0
    # zero-copy: the frozen views share the caller's arrays, which
    # stay writable
    assert np.shares_memory(got["d.kernel"], src["d.kernel"])
    assert src["d.kernel"].flags.writeable


def test_lru_eviction_at_entry_cap():
    cache = WeightCache(max_entries=2)
    cache.put("a", weights(0))
    cache.put("b", weights(1))
    cache.get("a")                       # refresh "a" → "b" is now LRU
    cache.put("c", weights(2))
    assert cache.get("b") is None and cache.stats()["entries"] == 2
    assert cache.evictions == 1
    assert cache.stats()["max_entries"] == 2


# one operation: ("get", key) or ("put", key, payload seed)
_OPS = st.lists(st.one_of(
    st.tuples(st.just("get"), st.integers(0, 11)),
    st.tuples(st.just("put"), st.integers(0, 11), st.integers(0, 3))),
    max_size=60)


@settings(max_examples=200, deadline=None)
@given(cap=st.integers(1, 8), ops=_OPS)
def test_matches_an_ordered_dict_lru(cap, ops):
    """On any get/put sequence the cache agrees with an ``OrderedDict``
    LRU of ``cap`` entries: the same hits, misses and evictions, the
    same contents in the same recency order, and every hit is a
    read-only view of what was last put under its key."""
    cache = WeightCache(max_entries=cap)
    ref: OrderedDict = OrderedDict()
    hits = misses = evictions = 0
    for op in ops:
        key = f"k{op[1]}"
        if op[0] == "get":
            got = cache.get(key)
            if key in ref:
                hits += 1
                ref.move_to_end(key)
                assert got is not None
                for name, arr in ref[key].items():
                    assert np.array_equal(got[name], arr)
                    assert not got[name].flags.writeable
            else:
                misses += 1
                assert got is None
        else:
            w = weights(op[2], n=2)
            cache.put(key, w)
            ref.pop(key, None)
            ref[key] = w
            while len(ref) > cap:
                ref.popitem(last=False)
                evictions += 1
    stats = cache.stats()
    assert (stats["hits"], stats["misses"], stats["evictions"]) == \
        (hits, misses, evictions)
    assert stats["insertions"] == sum(op[0] == "put" for op in ops)
    assert stats["entries"] == len(ref)
    assert list(cache._entries) == list(ref)


def test_thread_safety_under_concurrent_get_put():
    cache = WeightCache(max_entries=8)
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
        t.join(timeout=30.0)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    stats = cache.stats()
    assert stats["entries"] <= 8
    assert stats["insertions"] >= stats["entries"] + stats["evictions"]


def test_non_positive_budget_is_rejected():
    with pytest.raises(ValueError, match="max_entries"):
        WeightCache(max_entries=0)
