"""Checkpoint I/O path: determinism, cache bound, drain barrier, errors.

The contract under test (DESIGN.md "Checkpoint I/O pipeline"): a
store-backed search saves write-behind and reads providers through a
population-sized cache, which changes *when* I/O happens, never *what*
the search computes — its traces are semantically identical to the
fully synchronous loop in ``reference_loop.py``, and ``overhead``
always equals ``io_blocked + io_hidden``.
"""

import tempfile
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference_loop import synchronous_search

from repro.checkpoint import CheckpointStore, ShardedCheckpointStore
from repro.cluster import (
    SearchDriver,
    SerialEvaluator,
    ThreadPoolEvaluator,
    Trace,
    TraceJournal,
    checkpoint_key,
    run_search,
)
from repro.nas import RandomSearch, RegularizedEvolution, is_failure_score
from repro.service import SessionSpec


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


def synchronous(problem, space, tmp_path, tag, n=10):
    """The synchronous reference: loads and saves every checkpoint in
    line, with no cache."""
    return synchronous_search(problem, evolution(space), n,
                              store=CheckpointStore(tmp_path / tag))


EVALUATORS = pytest.mark.parametrize("make_evaluator", [
    SerialEvaluator, lambda: ThreadPoolEvaluator(1)],
    ids=["serial", "threads1"])


# ---------------------------------------------------------------------------
# determinism: write-behind + cache == the synchronous loop
# ---------------------------------------------------------------------------

def decisions(trace):
    """What the search decided, per candidate: the I/O path may move
    I/O around but must leave every one of these bit-identical."""
    return [(r.candidate_id, r.arch_seq, r.score, r.provider_id,
             r.transferred, r.transfer_coverage) for r in trace]


@pytest.fixture(scope="module")
def sync_run(problem, space, tmp_path_factory):
    return synchronous(problem, space, tmp_path_factory.mktemp("sync"),
                       "sync")


@EVALUATORS
def test_fast_path_trace_matches_synchronous_run(problem, space, tmp_path,
                                                 sync_run, make_evaluator):
    with make_evaluator() as evaluator:
        fast, _ = search(problem, space, tmp_path, "fast",
                         evaluator=evaluator)
    assert decisions(fast) == decisions(sync_run)
    assert fast.transfer_stats == sync_run.transfer_stats
    assert any(r.transferred for r in fast.ok_records())
    # write-behind hides the payload writes from the loop
    assert fast.total_io_hidden > 0.0
    assert fast.total_io_blocked < fast.total_overhead
    assert any(r.cache_hit for r in fast)
    assert fast.io_stats["cache"]["hits"] > 0


@pytest.mark.parametrize("value", [1 << 20, "on"], ids=["budget", "str"])
@pytest.mark.parametrize("knob", ["cache", "prefetch", "async_io"])
def test_io_knobs_take_a_bool(problem, space, knob, value):
    """The I/O knobs survive only as ``SessionSpec`` names, which change
    nothing (``tests/test_service.py``) but must still be bools."""
    kw = {"extra_driver_kwargs": {knob: value}} if knob == "async_io" \
        else {knob: value}
    with pytest.raises(TypeError, match=knob):
        SessionSpec(problem=problem, strategy=evolution(space),
                    num_candidates=1, **kw)


def test_overhead_is_always_blocked_plus_hidden(problem, space, tmp_path):
    trace, _ = search(problem, space, tmp_path, "a", n=6)
    for r in trace:
        assert r.overhead == pytest.approx(r.io_blocked + r.io_hidden)


# ---------------------------------------------------------------------------
# the provider cache holds what a child can read
# ---------------------------------------------------------------------------

def test_provider_cache_never_outgrows_the_population(problem, space,
                                                      tmp_path):
    """Under the parent policy only the population can provide, so the
    cache is capped at ``population_size`` entries and still hits; only
    a provider's first child reads its checkpoint from disk."""
    driver = SearchDriver(problem, evolution(space), 16, scheme="lcs",
                          store=CheckpointStore(tmp_path / "c"), seed=0)
    sizes = []
    while not driver.done:
        driver.step()
        sizes.append(driver.weight_cache.stats()["entries"])
    trace = driver.finalize()
    assert driver.finalize() is trace      # idempotent
    stats = trace.io_stats["cache"]
    assert max(sizes) == stats["max_entries"] == 4
    assert stats["evictions"] > 0
    assert stats["hits"] == sum(r.cache_hit for r in trace) > 0
    providers = {r.provider_id for r in trace if r.provider_id is not None}
    assert stats["misses"] >= len(providers)


def test_strategy_without_a_population_gets_no_cache(problem, space,
                                                     tmp_path):
    trace = run_search(problem, RandomSearch(space, rng=0), 8,
                       scheme="lcs", store=CheckpointStore(tmp_path / "r"),
                       provider_policy="random", seed=0)
    assert "cache" not in trace.io_stats
    assert any(r.transferred for r in trace.ok_records())
    assert not any(r.cache_hit for r in trace)


# ---------------------------------------------------------------------------
# write-behind drain barrier
# ---------------------------------------------------------------------------

def test_drain_barrier_makes_every_checkpoint_durable(problem, space,
                                                      tmp_path):
    trace, store = search(problem, space, tmp_path, "wb")
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
    # just before — the wait on the provider's own save must make it
    # visible
    sync = synchronous(problem, space, tmp_path, "s", n=10)
    fast, _ = search(problem, space, tmp_path, "f", n=10)
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


FAIL = {checkpoint_key(i) for i in range(4)}    # the whole warm-up


def test_failed_write_behind_save_costs_the_checkpoint_not_the_search(
        problem, space, tmp_path):
    """A failed save is a missing provider: its children cold-start,
    each failed save is booked as one fault, and the cache never serves
    its weights."""
    trace = run_search(problem, evolution(space), 10, scheme="lcs",
                       store=_FailingStore(tmp_path / "f", FAIL), seed=0)
    assert len(trace) == 10
    assert all(r.ok for r in trace.records[:4])     # all four did train
    assert not any(r.provider_id in range(4) for r in trace)
    assert any(r.parent_id in range(4) for r in trace)
    assert trace.fault_stats["by_kind"]["ckpt_write"] == 4
    assert len(trace.io_stats["writer_errors"]) == 4
    assert all(r.ckpt_bytes == 0 for r in trace.records[:4])


def test_a_short_disk_fault_costs_only_its_own_saves(problem, space,
                                                     tmp_path, monkeypatch):
    """Saves failing for a window of three keys book three faults and
    nothing else: a ``ShardedCheckpointStore`` decides exactly what a
    plain store decides, and saves again as soon as the disk does."""
    window = {checkpoint_key(i) for i in (2, 3, 4)}
    disk_save = CheckpointStore.save

    def save(self, key, weights, meta=None):
        if key in window:
            raise OSError(f"disk gone for {key}")
        return disk_save(self, key, weights, meta)

    monkeypatch.setattr(CheckpointStore, "save", save)
    traces = [run_search(problem, evolution(space), 16, scheme="lcs",
                         store=store, seed=0)
              for store in (CheckpointStore(tmp_path / "plain"),
                            ShardedCheckpointStore(tmp_path / "sharded",
                                                   num_shards=4))]
    plain, sharded = traces
    assert decisions(sharded) == decisions(plain)
    for trace in traces:
        assert trace.fault_stats["by_kind"] == {"ckpt_write": 3}
        assert [r.candidate_id for r in trace
                if not r.ckpt_bytes] == [2, 3, 4]


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fail_ids=st.sets(st.integers(0, 11)), threads=st.booleans())
def test_writer_errors_name_each_failed_save_once(problem, space, fail_ids,
                                                  threads):
    """Whatever set of saves fails, ``io_stats["writer_errors"]`` names
    each failed key exactly once, and there are as many entries as
    ``ckpt_write`` faults."""
    fail = {checkpoint_key(i) for i in fail_ids}
    with tempfile.TemporaryDirectory() as root, \
            (ThreadPoolEvaluator(2) if threads else SerialEvaluator()) \
            as evaluator:
        trace = run_search(problem, evolution(space), 12, scheme="lcs",
                           store=_FailingStore(root, fail),
                           evaluator=evaluator, seed=0)
    failed = sorted(checkpoint_key(r.candidate_id)
                    for r in trace.ok_records()
                    if checkpoint_key(r.candidate_id) in fail)
    errors = trace.io_stats.get("writer_errors", [])
    assert sorted(e.split(": ", 1)[0] for e in errors) == failed
    assert all("disk gone for" in e for e in errors)
    faults = (trace.fault_stats or {}).get("by_kind", {})
    assert len(errors) == faults.get("ckpt_write", 0)


class _LateFailingStore(_FailingStore):
    """A store whose saves of the ``fail`` keys are held back until the
    first child has been asked (``asked``), and raise only a moment
    later — while that child is already picking its provider."""

    def __init__(self, root, fail):
        super().__init__(root, fail)
        self.asked = threading.Event()

    def save(self, key, weights, meta=None):
        if key in self.fail:
            if not self.asked.wait(30):
                raise TimeoutError("no child was ever asked")
            time.sleep(0.05)
        return super().save(key, weights, meta)


class _AskSignalingEvolution(RegularizedEvolution):
    """Evolution that sets ``asked`` once its first child is asked."""

    def __init__(self, space, asked):
        super().__init__(space, rng=0, population_size=4, sample_size=2)
        self.asked = asked

    def ask(self):
        proposal = super().ask()
        if proposal.parent_id is not None:
            self.asked.set()
        return proposal


@EVALUATORS
def test_save_failing_after_a_child_asked_decides_as_failing_at_once(
        problem, space, tmp_path, make_evaluator):
    """The children of a save that is still running wait for it, so a
    save that fails late decides what one failing at once decides —
    never a transfer from weights no disk holds, whatever the writer
    thread's timing."""
    with make_evaluator() as evaluator:
        at_once = run_search(problem, evolution(space), 10, scheme="lcs",
                             store=_FailingStore(tmp_path / "a", FAIL),
                             evaluator=evaluator, seed=0)
    store = _LateFailingStore(tmp_path / "l", FAIL)
    with make_evaluator() as evaluator:
        late = run_search(problem, _AskSignalingEvolution(space, store.asked),
                          10, scheme="lcs", store=store,
                          evaluator=evaluator, seed=0)
    assert decisions(late) == decisions(at_once)
    assert not any(r.provider_id in range(4) for r in late)
    assert late.fault_stats["by_kind"]["ckpt_write"] == 4


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
                          store=store, seed=0, journal=journal)

    def journaled():
        if not journal.exists():
            return []
        return [r.candidate_id for r in TraceJournal.replay(journal)[1]]

    try:
        # the random warm-up: no child asks for the held provider yet (a
        # child would wait for its save)
        while driver.completed < 4:
            driver.step()
        assert driver.trace.records[2].ok
        assert not store.exists(held)
        # completion order: nothing at or after candidate 2 is journaled
        ids = journaled()
        assert ids == [0, 1][:len(ids)]
    finally:
        store.release.set()
    while not driver.done:
        driver.step()
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
                   seed=0)
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
    fast, _ = search(problem, space, tmp_path, "fast", n=6)
    path = fast.save_jsonl(tmp_path / "fast.jsonl")
    loaded = Trace.load_jsonl(path)
    assert loaded.io_stats == fast.io_stats
    for a, b in zip(loaded, fast):
        assert (a.io_blocked, a.io_hidden, a.cache_hit) == \
            (b.io_blocked, b.io_hidden, b.cache_hit)


