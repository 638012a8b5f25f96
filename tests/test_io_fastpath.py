"""Checkpoint I/O fast path: determinism, drain barrier, error path.

The contract under test (DESIGN.md "Checkpoint I/O pipeline"): turning
on the cache / write-behind knobs changes *when*
I/O happens, never *what* the search computes — fast-path traces are
semantically identical to fully synchronous ones, and ``overhead``
always equals ``io_blocked + io_hidden``.
"""

import threading

import pytest

from repro.checkpoint import CheckpointStore
from repro.cluster import (
    SearchDriver,
    SerialEvaluator,
    ThreadPoolEvaluator,
    Trace,
    TraceJournal,
    checkpoint_key,
    run_search,
)
from repro.nas import RegularizedEvolution, is_failure_score


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

def decisions(trace):
    """What the search decided, per candidate: the fast path may move
    I/O around but must leave every one of these bit-identical."""
    return [(r.candidate_id, r.arch_seq, r.score, r.provider_id,
             r.transferred, r.transfer_coverage) for r in trace]


@pytest.fixture(scope="module")
def sync_run(problem, space, tmp_path_factory):
    """The paper configuration: sync store, no cache, serial evaluator."""
    trace, _ = search(problem, space, tmp_path_factory.mktemp("sync"),
                      "sync")
    return trace


@pytest.mark.parametrize("make_evaluator", [
    SerialEvaluator, lambda: ThreadPoolEvaluator(1)],
    ids=["serial", "threads1"])
@pytest.mark.parametrize("async_io", [False, True],
                         ids=["sync_io", "async_io"])
@pytest.mark.parametrize("cache", [None, True], ids=["nocache", "cache"])
def test_fast_path_trace_matches_synchronous_run(problem, space, tmp_path,
                                                 sync_run, cache, async_io,
                                                 make_evaluator):
    with make_evaluator() as evaluator:
        fast, _ = search(problem, space, tmp_path, "fast", cache=cache,
                         async_io=async_io, evaluator=evaluator)
    assert decisions(fast) == decisions(sync_run)
    assert fast.transfer_stats == sync_run.transfer_stats
    assert any(r.transferred for r in fast.ok_records())
    # the sync run books everything as blocked; write-behind hides some
    assert sync_run.total_io_hidden == 0.0
    assert sync_run.total_io_blocked == pytest.approx(
        sync_run.total_overhead)
    if async_io:
        assert fast.total_io_hidden > 0.0
        assert fast.total_io_blocked < fast.total_overhead
    else:
        assert fast.total_io_hidden == 0.0
    assert any(r.cache_hit for r in fast) == bool(cache)
    if cache:
        assert fast.io_stats["cache"]["hits"] > 0


@pytest.mark.parametrize("value", [1 << 20, "on"], ids=["budget", "str"])
@pytest.mark.parametrize("knob", ["cache", "async_io"])
def test_io_knobs_take_a_bool(problem, space, tmp_path, knob, value):
    with pytest.raises(TypeError, match=knob):
        search(problem, space, tmp_path, "knob", n=1, **{knob: value})


def test_overhead_is_always_blocked_plus_hidden(problem, space, tmp_path):
    for tag, kw in [("a", {}), ("b", dict(cache=True, async_io=True))]:
        trace, _ = search(problem, space, tmp_path, tag, n=6, **kw)
        for r in trace:
            assert r.overhead == pytest.approx(r.io_blocked + r.io_hidden)


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


class _FailingStore(CheckpointStore):
    """A store whose saves of the ``fail`` keys raise ``OSError``."""

    def __init__(self, root, fail):
        super().__init__(root)
        self.fail = set(fail)

    def save(self, key, weights, meta=None):
        if key in self.fail:
            raise OSError(f"disk gone for {key}")
        return super().save(key, weights, meta)


@pytest.mark.parametrize("cache", [None, True], ids=["nocache", "cache"])
def test_failed_write_behind_save_costs_the_checkpoint_not_the_search(
        problem, space, tmp_path, cache):
    """A failed save is a missing provider on both paths: its children
    cold-start, and each failed save is booked as one fault.  The cache
    never serves weights whose synchronous save failed."""
    fail = {checkpoint_key(i) for i in range(4)}

    def run(tag, **kw):
        return run_search(problem, evolution(space), 10, scheme="lcs",
                          store=_FailingStore(tmp_path / tag, fail), seed=0,
                          **kw)

    plain = run("plain")
    sync = run("sync", cache=cache)
    fast = run("fast", cache=cache, async_io=True)
    assert all(r.ok for r in sync.records[:4])       # all four did save
    assert decisions(sync) == decisions(plain)
    assert not any(r.provider_id in range(4) for r in sync)
    assert sync.fault_stats["by_kind"]["ckpt_write"] == 4
    assert len(fast) == 10
    assert fast.fault_stats["by_kind"]["ckpt_write"] == 4
    assert len(fast.io_stats["writer_errors"]) == 4
    assert all(r.ckpt_bytes == 0 for r in fast.records[:4])
    if cache is None:
        # with a cache, a child may hit a write-behind save that is
        # still running and fails later: only the uncached run is exact
        assert decisions(fast) == decisions(plain)


class _HeldStore(CheckpointStore):
    """A store that holds back the save of ``held`` until released."""

    def __init__(self, root, held):
        super().__init__(root)
        self.held = held
        self.release = threading.Event()

    def save(self, key, weights, meta=None):
        if key == self.held and not self.release.wait(30):
            raise TimeoutError(f"{key} was never released")
        return super().save(key, weights, meta)


def test_write_behind_record_is_journaled_once_its_save_lands(
        problem, space, tmp_path):
    """A journaled record's checkpoint is on disk, so a run killed while
    a save is still running resumes only from providers that exist."""
    journal = tmp_path / "run.jsonl"
    held = checkpoint_key(2)
    store = _HeldStore(tmp_path / "ckpt", held)
    driver = SearchDriver(problem, evolution(space), 6, scheme="lcs",
                          store=store, seed=0, cache=True, async_io=True,
                          journal=journal)

    def journaled():
        if not journal.exists():
            return []
        return [r.candidate_id for r in TraceJournal.replay(journal)[1]]

    try:
        while not driver.done:
            driver.step()
        assert driver.trace.records[2].ok
        assert not store.exists(held)
        # completion order: nothing at or after candidate 2 is journaled
        ids = journaled()
        assert ids == [0, 1][:len(ids)]
    finally:
        store.release.set()
    trace = driver.finalize()
    assert store.exists(held)
    assert journaled() == [r.candidate_id for r in trace] == list(range(6))
    assert trace.records[2].ckpt_bytes == store.nbytes(held)


class _FailingEvolution(RegularizedEvolution):
    """Evolution whose ``fail_at``-th ask raises; remembers every score
    it was told."""

    def __init__(self, space, fail_at):
        super().__init__(space, rng=0, population_size=4, sample_size=2)
        self.fail_at = fail_at
        self.asks = 0
        self.told = {}

    def ask(self):
        self.asks += 1
        if self.asks == self.fail_at:
            raise RuntimeError("strategy exploded")
        return super().ask()

    def tell(self, candidate_id, arch_seq, score):
        self.told[candidate_id] = score
        super().tell(candidate_id, arch_seq, score)


def test_failed_search_closes_its_write_behind_writer(problem, space,
                                                      tmp_path):
    """A run_search that raises must not leak its own writer: every
    save it was handed is on disk before the error reaches the caller,
    and no thread is left behind but the shared checkpoint writer."""
    before = set(threading.enumerate())
    store = CheckpointStore(tmp_path / "err")
    strategy = _FailingEvolution(space, fail_at=4)
    with pytest.raises(RuntimeError, match="strategy exploded"):
        run_search(problem, strategy, 6, scheme="lcs", store=store,
                   seed=0, async_io=True)
    leaked = [t for t in threading.enumerate() if t not in before
              and not t.name.startswith("checkpoint-writer")]
    assert leaked == []
    saved = [cid for cid, score in strategy.told.items()
             if not is_failure_score(score)]
    assert saved
    assert all(store.exists(checkpoint_key(cid)) for cid in saved)


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


