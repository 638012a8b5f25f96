"""Checkpoint I/O fast path: determinism, drain barrier, pools.

The contract under test (DESIGN.md "Checkpoint I/O pipeline"): turning
on the cache / prefetch / write-behind knobs changes *when*
I/O happens, never *what* the search computes — fast-path traces are
semantically identical to fully synchronous ones, and ``overhead``
always equals ``io_blocked + io_hidden``.
"""

import pytest

from repro.checkpoint import CheckpointStore, WeightCache
from repro.cluster import (
    Trace,
    checkpoint_key,
    run_search,
)
from repro.nas import RegularizedEvolution


def semantics(trace):
    """The score-relevant view of a trace: everything but timing."""
    return [(r.candidate_id, r.arch_seq, r.score, r.ok, r.provider_id,
             r.transferred, round(r.transfer_coverage, 12), r.parent_id)
            for r in trace]


def evolution(space):
    return RegularizedEvolution(space, rng=0, population_size=4,
                                sample_size=2)


def search(problem, space, tmp_path, tag, n=10, **kw):
    store = CheckpointStore(tmp_path / tag)
    trace = run_search(problem, evolution(space), n, scheme="lcs",
                       store=store, seed=0, **kw)
    return trace, store


# ---------------------------------------------------------------------------
# determinism: fast path == sync path
# ---------------------------------------------------------------------------

def test_cached_async_trace_matches_synchronous_run(problem, space,
                                                    tmp_path):
    sync, _ = search(problem, space, tmp_path, "sync")
    fast, _ = search(problem, space, tmp_path, "fast",
                     cache=True, prefetch=True, async_io=True)
    assert semantics(fast) == semantics(sync)
    # the sync run books everything as blocked, the fast run hides some
    assert sync.total_io_hidden == 0.0
    assert sync.total_io_blocked == pytest.approx(sync.total_overhead)
    assert fast.total_io_blocked < fast.total_overhead
    assert fast.total_io_hidden > 0.0
    assert fast.io_stats["cache"]["hits"] > 0


def test_overhead_is_always_blocked_plus_hidden(problem, space, tmp_path):
    for tag, kw in [("a", {}), ("b", dict(cache=True, async_io=True))]:
        trace, _ = search(problem, space, tmp_path, tag, n=6, **kw)
        for r in trace:
            assert r.overhead == pytest.approx(r.io_blocked + r.io_hidden)


def test_cache_only_run_matches_sync(problem, space, tmp_path):
    sync, _ = search(problem, space, tmp_path, "sync", n=8)
    cached, _ = search(problem, space, tmp_path, "cached", n=8,
                       cache=WeightCache(max_bytes=64 * 1024 * 1024))
    assert semantics(cached) == semantics(sync)
    assert any(r.cache_hit for r in cached)
    assert not any(r.cache_hit for r in sync)


# ---------------------------------------------------------------------------
# write-behind drain barrier
# ---------------------------------------------------------------------------

def test_drain_barrier_makes_every_checkpoint_durable(problem, space,
                                                      tmp_path):
    trace, store = search(problem, space, tmp_path, "wb", async_io=True,
                          cache=True)
    ok = trace.ok_records()
    for r in ok:
        key = checkpoint_key(r.candidate_id)
        assert store.exists(key)
        assert r.ckpt_bytes == store.nbytes(key)   # back-filled at drain
        assert r.ckpt_bytes > 0
    assert trace.io_stats["drain_seconds"] >= 0.0
    # hidden write cost was attributed to the records that saved
    assert sum(r.io_hidden for r in ok) > 0.0


def test_async_children_still_transfer_from_pending_parents(problem, space,
                                                            tmp_path):
    # with SerialEvaluator every child's provider was saved write-behind
    # just before — the cache/flush fallback must make it visible
    sync, _ = search(problem, space, tmp_path, "s", n=10)
    fast, _ = search(problem, space, tmp_path, "f", n=10, async_io=True)
    assert semantics(fast) == semantics(sync)
    assert any(r.transferred for r in fast.ok_records())


# ---------------------------------------------------------------------------
# process pools: provider weights travel pickled inside the task
# ---------------------------------------------------------------------------

def test_process_pool_matches_sync(problem, space, tmp_path):
    from repro.cluster import ProcessPoolEvaluator

    sync, _ = search(problem, space, tmp_path, "s", n=6)
    ev = ProcessPoolEvaluator(num_workers=1)   # 1 worker ⇒ deterministic
    try:
        pooled, _ = search(problem, space, tmp_path, "p", n=6,
                           evaluator=ev, cache=True, async_io=True)
    finally:
        ev.close()
    assert semantics(pooled) == semantics(sync)
    assert any(r.transferred for r in pooled.ok_records())


# ---------------------------------------------------------------------------
# trace serialisation of the new fields
# ---------------------------------------------------------------------------

def test_trace_jsonl_round_trips_io_fields(problem, space, tmp_path):
    fast, _ = search(problem, space, tmp_path, "fast", n=6, cache=True,
                     async_io=True)
    path = fast.save_jsonl(tmp_path / "fast.jsonl")
    loaded = Trace.load_jsonl(path)
    assert loaded.io_stats == fast.io_stats
    for a, b in zip(loaded, fast):
        assert (a.io_blocked, a.io_hidden, a.cache_hit) == \
            (b.io_blocked, b.io_hidden, b.cache_hit)


