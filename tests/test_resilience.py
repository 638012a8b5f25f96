"""Fault tolerance: containment, retry, quarantine, journal, chaos."""

import functools
import json
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_loop import synchronous_search

from repro.checkpoint import CheckpointStore, CorruptCheckpointError
from repro.cluster import (
    ChaosEvaluator,
    InjectedFault,
    RetryPolicy,
    SearchDriver,
    SerialEvaluator,
    SimulatedCluster,
    TaskFailure,
    ThreadPoolEvaluator,
    TraceJournal,
    checkpoint_key,
    run_search,
)
from repro.apps import get_app
from repro.cluster.resilience import classify_failure
from repro.cluster.trace import TraceRecord
from repro.nas import FAILURE_SCORE, RandomSearch, RegularizedEvolution


def _boom():
    raise ValueError("worker task exploded")


def _const():
    return 42


# ---------------------------------------------------------------------------
# taxonomy + retry policy
# ---------------------------------------------------------------------------

def test_classify_failure_taxonomy():
    assert classify_failure(InjectedFault("i")) == "injected"
    assert classify_failure(
        CorruptCheckpointError("k", "p", ValueError())) == "corrupt_checkpoint"
    assert classify_failure(ValueError("v")) == "task_error"


def test_task_failure_carries_kind():
    f = TaskFailure(ValueError("x"))
    assert f.kind == "task_error"
    assert "task_error" in repr(f)
    assert TaskFailure(ValueError("x"), kind="custom").kind == "custom"


def test_retry_policy_bounds():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay=-1.0)
    p = RetryPolicy(max_attempts=3, base_delay=0.1, jitter=0.0,
                    max_delay=0.25)
    assert p.should_retry(1) and p.should_retry(2)
    assert not p.should_retry(3)
    assert p.delay(1) == pytest.approx(0.1)
    assert p.delay(2) == pytest.approx(0.2)
    assert p.delay(3) == pytest.approx(0.25)   # capped at max_delay
    # max_attempts=1 is containment-only
    assert not RetryPolicy(max_attempts=1).should_retry(1)


def test_retry_jitter_is_seeded():
    p = RetryPolicy(base_delay=0.1, jitter=0.05)
    d1 = [p.delay(1, np.random.default_rng(7)) for _ in range(3)]
    d2 = [p.delay(1, np.random.default_rng(7)) for _ in range(3)]
    assert d1 == d2
    assert all(0.1 <= d <= 0.15 for d in d1)


# ---------------------------------------------------------------------------
# evaluator containment (satellite: every evaluator contains exceptions)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", [
    SerialEvaluator,
    lambda: ThreadPoolEvaluator(2),
])
def test_evaluators_contain_task_exceptions(make):
    with make() as ev:
        ticket = ev.submit(_boom)
        got, result = ev.wait_any()
        assert got == ticket
        assert isinstance(result, TaskFailure)
        assert result.kind == "task_error"
        assert "exploded" in str(result.error)
        # the evaluator survives: a healthy task still completes
        ev.submit(_const)
        _, result = ev.wait_any()
        assert result == 42


def test_failed_task_lands_as_failed_record(space, problem):
    """A worker exception becomes a FAILURE_SCORE record, not a crash."""
    ev = ChaosEvaluator(SerialEvaluator(), crash_prob=1.0, seed=0)
    trace = run_search(problem, RandomSearch(space, rng=0), 3,
                       scheme="baseline", evaluator=ev, seed=0)
    assert len(trace) == 3
    for r in trace:
        assert not r.ok
        assert r.score == FAILURE_SCORE
        assert r.error.startswith("injected:")
    fs = trace.fault_stats
    assert fs["by_kind"]["injected"] == 3
    assert fs["failed_records"] == 3
    assert fs["retries"] == 0              # default policy: containment only
    assert fs["chaos"]["injected"]["crash"] == 3


@pytest.mark.parametrize("probs", [
    dict(crash_prob=-0.5),
    dict(crash_prob=1.5),
    dict(crash_prob=-0.1),
    dict(crash_prob=float("nan")),
])
def test_chaos_rejects_probabilities_outside_unit_interval(probs):
    """The crash probability must be in [0, 1]; NaN is not."""
    with pytest.raises(ValueError):
        ChaosEvaluator(SerialEvaluator(), **probs)
    ChaosEvaluator(SerialEvaluator(), crash_prob=1.0)


# ---------------------------------------------------------------------------
# chaos + retry: the search completes and stays deterministic
# ---------------------------------------------------------------------------

def test_chaos_with_retry_completes_all_candidates(space, problem):
    def run():
        ev = ChaosEvaluator(SerialEvaluator(), crash_prob=0.4, seed=3)
        return run_search(problem, RandomSearch(space, rng=0), 8,
                          scheme="baseline", evaluator=ev, seed=0,
                          retry=RetryPolicy(max_attempts=4, base_delay=0.0,
                                            jitter=0.0))

    trace = run()
    assert len(trace) == 8
    assert all(r.ok for r in trace)
    fs = trace.fault_stats
    assert fs["chaos"]["injected"]["crash"] > 0
    assert fs["retries"] > 0
    assert fs["failed_records"] == 0
    assert max(r.attempts for r in trace) > 1
    # an identical chaos run replays the same crashes and retries
    assert [(r.score, r.attempts) for r in run()] == \
        [(r.score, r.attempts) for r in trace]


def test_chaos_crashes_do_not_perturb_scores(space, problem):
    """Crash-only chaos + retry reproduces the clean run bit-for-bit:
    retries and jitter draw from dedicated rng streams."""
    def run(evaluator):
        return run_search(problem, RandomSearch(space, rng=0), 6,
                          scheme="baseline", evaluator=evaluator, seed=0,
                          retry=RetryPolicy(max_attempts=5,
                                            base_delay=0.0, jitter=0.01))

    clean = run(SerialEvaluator())
    chaos = run(ChaosEvaluator(SerialEvaluator(), crash_prob=0.5, seed=11))
    assert [(r.arch_seq, r.score) for r in clean] == \
           [(r.arch_seq, r.score) for r in chaos]


class _NanScoreEvaluator(SerialEvaluator):
    """A flaky node: every task's result comes back with a NaN score."""

    def submit(self, task):
        def flaky():
            result = task()
            result.score = float("nan")
            return result
        return super().submit(flaky)


def test_non_finite_score_is_contained(space, problem):
    """The scheduler's result validation books a non-finite score as a
    ``corrupt_result`` fault and lands a failed record."""
    trace = run_search(problem, RandomSearch(space, rng=0), 2,
                       scheme="baseline", evaluator=_NanScoreEvaluator(),
                       seed=0)
    assert len(trace) == 2
    for r in trace:
        assert not r.ok and r.score == FAILURE_SCORE
    assert trace.fault_stats["by_kind"]["corrupt_result"] == 2


def test_retry_backoff_does_not_block_complete(space, problem):
    """A backoff never sleeps inside ``complete``: the retry waits as an
    in-flight candidate with a due time while the caller keeps going."""
    driver = SearchDriver(problem, RandomSearch(space, rng=0), 2,
                          scheme="baseline", seed=0,
                          retry=RetryPolicy(max_attempts=2, base_delay=3.0,
                                            jitter=0.0))
    driver.submit_next()
    (ticket,) = driver.pending_tickets()
    t0 = time.monotonic()
    landed = driver.complete(ticket, TaskFailure(ValueError("crashed")))
    assert time.monotonic() - t0 < 1.0
    assert not landed and driver.pending_tickets() == []
    assert driver.in_flight == 1
    assert driver.submitted == driver.completed + driver.in_flight
    assert driver.next_retry_due - t0 == pytest.approx(3.0, abs=0.5)
    assert driver.fault_stats.backoff_seconds == 3.0


def test_backoff_retries_replay_the_same_records(space, problem):
    """In ``step`` a backing-off retry keeps its worker slot, so a
    serial chaos run with backoff replays the run without it."""
    def run(base_delay):
        driver = SearchDriver(
            problem, RandomSearch(space, rng=0), 6, scheme="baseline",
            seed=0, evaluator=ChaosEvaluator(SerialEvaluator(),
                                             crash_prob=0.5, seed=11),
            retry=RetryPolicy(max_attempts=5, base_delay=base_delay,
                              jitter=0.0))
        while not driver.done:
            driver.step()
            assert driver.submitted == driver.completed + driver.in_flight
        return driver.finalize()

    delayed, eager = run(0.01), run(0.0)
    assert delayed.fault_stats["backoff_seconds"] > 0.0
    assert [(r.candidate_id, r.arch_seq, r.score, r.attempts)
            for r in delayed] == \
        [(r.candidate_id, r.arch_seq, r.score, r.attempts) for r in eager]


# ---------------------------------------------------------------------------
# corrupt checkpoints: store-level + scheduler quarantine
# ---------------------------------------------------------------------------

def _truncate(path):
    blob = path.read_bytes()
    path.write_bytes(blob[: max(1, len(blob) // 3)])


def test_store_load_raises_corrupt_checkpoint(tmp_path):
    store = CheckpointStore(tmp_path)
    store.save("w", {"a": np.arange(6, dtype=np.float32)})
    _truncate(store.path("w"))
    with pytest.raises(CorruptCheckpointError) as err:
        store.load("w")
    assert err.value.key == "w"
    # missing keys are still FileNotFoundError, not "corrupt"
    with pytest.raises(FileNotFoundError):
        store.load("nope")


def test_store_quarantine_moves_files(tmp_path):
    store = CheckpointStore(tmp_path)
    store.save("bad", {"a": np.ones(3, dtype=np.float32)},
               meta={"x": 1})
    _truncate(store.path("bad"))
    store.quarantine("bad")
    assert not store.exists("bad")
    assert store.quarantined_keys() == ["bad"]
    assert (store.quarantine_root / store.path("bad").name).exists()


class CorruptingStore(CheckpointStore):
    """A store whose every checkpoint is truncated as soon as it lands."""
    def save(self, key, weights, meta=None):
        info = super().save(key, weights, meta)
        _truncate(self.path(key))
        return info


def _evolution(space):
    return RegularizedEvolution(space, rng=0, population_size=4,
                                sample_size=2)


def test_scheduler_quarantines_corrupt_provider(space, problem, tmp_path):
    """A corrupt provider checkpoint is quarantined and the candidate
    cold-starts — the search itself finishes every candidate."""
    store = CorruptingStore(tmp_path)
    trace = run_search(problem, _evolution(space), 10, scheme="lcs",
                       store=store, seed=0)
    assert len(trace) == 10
    fs = trace.fault_stats
    assert fs["quarantined"] >= 1
    assert fs["by_kind"]["corrupt_checkpoint"] == fs["quarantined"]
    assert all(r.provider_id is None for r in trace)   # all cold starts
    assert len(store.quarantined_keys()) == fs["quarantined"]


def test_live_run_and_its_resume_agree_under_a_corrupting_store(
        space, problem, tmp_path):
    """A provider's disk copy is CRC-checked before any child inherits
    from it, so the provider cache cannot hide a corrupt checkpoint: the
    live run decides and quarantines what the synchronous reference
    loop does, and a killed run's resume — which starts with an empty cache
    — cold-starts exactly as the run it continues."""
    def decisions(trace):
        return [(r.candidate_id, r.arch_seq, r.score, r.provider_id,
                 r.transferred) for r in trace]

    live_store = CorruptingStore(tmp_path / "live")
    live = run_search(problem, _evolution(space), 10, scheme="lcs",
                      store=live_store, seed=0)
    sync_store = CorruptingStore(tmp_path / "sync")
    sync = synchronous_search(problem, _evolution(space), 10,
                              store=sync_store)
    assert decisions(live) == decisions(sync)
    assert live_store.quarantined_keys() == sync_store.quarantined_keys()
    assert live.fault_stats["quarantined"] == \
        len(live_store.quarantined_keys()) >= 1

    store = CorruptingStore(tmp_path / "resumed")
    journal = tmp_path / "run.jsonl"
    killed = run_search(problem, _evolution(space), 5, scheme="lcs",
                        store=store, seed=0, journal=journal)
    assert decisions(killed) == decisions(live)[:5]
    resumed = run_search(problem, _evolution(space), 10, scheme="lcs",
                         store=store, seed=0, resume=journal)
    assert decisions(resumed)[:5] == decisions(live)[:5]
    assert all(r.provider_id is None and not r.transferred
               for r in resumed)
    # each corrupt provider is quarantined once, by whichever of the
    # two runs asked for it first
    asked = {checkpoint_key(r.parent_id) for r in resumed
             if r.parent_id is not None}
    assert set(store.quarantined_keys()) <= asked
    assert len(store.quarantined_keys()) == \
        killed.fault_stats["quarantined"] + resumed.fault_stats["quarantined"]


# ---------------------------------------------------------------------------
# journal + resume
# ---------------------------------------------------------------------------

def test_journal_roundtrip(tmp_path):
    path = tmp_path / "j.jsonl"
    records = [TraceRecord(candidate_id=i, arch_seq=(i, 1), score=0.1 * i,
                           scheme="lcs", ok=True) for i in range(3)]
    with TraceJournal(path, name="run", scheme="lcs") as j:
        for r in records:
            j.append(r)
    header, replayed = TraceJournal.replay(path)
    assert header["name"] == "run" and header["scheme"] == "lcs"
    assert replayed == records
    trace = TraceJournal.to_trace(path)
    assert len(trace) == 3 and trace.scheme == "lcs"


def test_journal_tolerates_torn_final_line(tmp_path):
    path = tmp_path / "j.jsonl"
    with TraceJournal(path, name="run") as j:
        j.append(TraceRecord(candidate_id=0, arch_seq=(0,), score=1.0,
                             scheme="baseline"))
    with open(path, "a") as fh:
        fh.write('{"candidate_id": 1, "arch_')     # killed mid-write
    _, replayed = TraceJournal.replay(path)
    assert [r.candidate_id for r in replayed] == [0]
    # a torn line anywhere else is data corruption and must raise
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0], "{broken", lines[1]]) + "\n")
    with pytest.raises(json.JSONDecodeError):
        TraceJournal.replay(path)


def test_resume_replays_journal_bit_identically(space, problem, tmp_path):
    journal = tmp_path / "run.jsonl"

    def strategy():
        return RegularizedEvolution(space, rng=5, population_size=4,
                                    sample_size=2)

    full = run_search(problem, strategy(), 8, scheme="baseline", seed=5,
                      journal=tmp_path / "full.jsonl")
    # "killed" run: only the first 5 candidates landed in the journal
    run_search(problem, strategy(), 5, scheme="baseline", seed=5,
               journal=journal)
    resumed = run_search(problem, strategy(), 8, scheme="baseline", seed=5,
                         resume=journal)
    assert len(resumed) == 8
    assert resumed.fault_stats["resumed_records"] == 5
    # replayed candidates are bit-identical to the uninterrupted run
    for a, b in zip(full.records[:5], resumed.records[:5]):
        assert (a.candidate_id, a.arch_seq, a.score) == \
               (b.candidate_id, b.arch_seq, b.score)
    # the journal now holds the full resumed run
    _, replayed = TraceJournal.replay(journal)
    assert [r.candidate_id for r in replayed] == list(range(8))


def test_resume_of_complete_journal_is_a_noop_run(space, problem, tmp_path):
    journal = tmp_path / "run.jsonl"
    first = run_search(problem, RandomSearch(space, rng=2), 4,
                       scheme="baseline", seed=2, journal=journal)
    again = run_search(problem, RandomSearch(space, rng=2), 4,
                       scheme="baseline", seed=2, resume=journal)
    assert [(r.candidate_id, r.score) for r in again.records] == \
           [(r.candidate_id, r.score) for r in first.records]


def test_resume_of_journal_with_id_gap_lands_every_candidate(
        space, problem, tmp_path):
    """A run that crashed while an earlier candidate was in flight leaves
    a journal with an id gap (here 0, 1, 2, 4).  The resumed search must
    still land ``num_candidates`` records under fresh, unique ids, with
    ``submitted == completed + in_flight`` after every step."""
    journal = tmp_path / "run.jsonl"
    store = CheckpointStore(tmp_path / "ckpt")

    def strategy():
        return RegularizedEvolution(space, rng=3, population_size=4,
                                    sample_size=2)

    run_search(problem, strategy(), 5, scheme="lcs", store=store, seed=3,
               journal=journal)
    lines = journal.read_text().splitlines()
    assert len(lines) == 6                 # header + candidates 0..4
    journal.write_text("\n".join(lines[:4] + lines[5:]) + "\n")

    driver = SearchDriver(problem, strategy(), 6, scheme="lcs", store=store,
                          seed=3, resume=journal)

    def invariant():
        assert driver.submitted == driver.completed + driver.in_flight

    invariant()
    assert driver.completed == 4 and driver.wants_submit
    steps = 0
    while not driver.done:
        driver.step()
        invariant()
        steps += 1
        assert steps <= 6
    trace = driver.finalize()
    ids = [r.candidate_id for r in trace]
    assert len(ids) == 6 and len(set(ids)) == 6
    assert ids[:4] == [0, 1, 2, 4]
    assert min(ids[4:]) > 4                # no recorded key is reused
    _, replayed = TraceJournal.replay(journal)
    assert [r.candidate_id for r in replayed] == ids


@functools.lru_cache(maxsize=1)
def _small_uno():
    return get_app("uno").problem(seed=0, n_train=64, n_val=32)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**16), scheme=st.sampled_from(["baseline", "lcs"]),
       data=st.data())
def test_resume_after_any_kill_point_lands_every_candidate(seed, scheme,
                                                           data):
    """A search killed after ``k`` of ``n`` candidates — its journal
    possibly missing one interior line, the id gap a crash leaves with
    an earlier candidate in flight — resumes to ``n`` records under
    unique ids, replaying every journaled record exactly.  What the
    continuation proposes is not compared with an uninterrupted run:
    the strategy's rng is not journaled (DESIGN.md "Fault tolerance")."""
    n = data.draw(st.integers(5, 9), label="n")
    k = data.draw(st.integers(1, n - 1), label="k")
    drop = data.draw(st.integers(1, k - 2), label="dropped line") \
        if k >= 3 and data.draw(st.booleans(), label="drop") else None
    problem = _small_uno()

    def strategy():
        return RegularizedEvolution(problem.space, rng=seed,
                                    population_size=4, sample_size=2)

    with tempfile.TemporaryDirectory() as tmp:
        journal = Path(tmp) / "run.jsonl"
        store = CheckpointStore(Path(tmp) / "ckpt") \
            if scheme == "lcs" else None
        run_search(problem, strategy(), k, scheme=scheme, store=store,
                   seed=seed, journal=journal)
        lines = journal.read_text().splitlines()
        if drop is not None:                   # line 0 is the header
            del lines[drop + 1]
        journal.write_text("\n".join(lines) + "\n")
        _, journaled = TraceJournal.replay(journal)

        driver = SearchDriver(problem, strategy(), n, scheme=scheme,
                              store=store, seed=seed, resume=journal)
        assert driver.submitted == driver.completed + driver.in_flight
        while not driver.done:
            driver.step()
            assert driver.submitted == driver.completed + driver.in_flight
        trace = driver.finalize()
        ids = [r.candidate_id for r in trace]
        assert len(ids) == n and len(set(ids)) == n
        assert min(ids[len(journaled):]) > max(r.candidate_id
                                               for r in journaled)
        assert [(r.candidate_id, r.arch_seq, r.score)
                for r in trace.records[:len(journaled)]] == \
            [(r.candidate_id, r.arch_seq, r.score) for r in journaled]
        _, relisted = TraceJournal.replay(journal)
        assert [r.candidate_id for r in relisted] == ids


def test_evolution_restore_fast_forwards_warmup(space):
    ev = RegularizedEvolution(space, rng=0, population_size=4,
                              sample_size=2)
    records = [TraceRecord(candidate_id=i, arch_seq=tuple(space.sample(
        np.random.default_rng(i))), score=float(i), scheme="baseline",
        ok=True) for i in range(6)]
    ev.restore(records)
    assert len(ev.population) == 4          # FIFO keeps the newest 4
    assert ev._asked == 6                   # past warmup: next ask evolves
    proposal = ev.ask()
    assert proposal.parent_id is not None


# ---------------------------------------------------------------------------
# faults on the simulated cluster: the same wrappers, on a virtual clock
# ---------------------------------------------------------------------------

def _sim_search(space, problem, store, n, evaluator, **kw):
    strategy = RegularizedEvolution(space, rng=1, population_size=4,
                                    sample_size=2)
    if not isinstance(store, CheckpointStore):
        store = CheckpointStore(store)
    return run_search(problem, strategy, n, scheme="lcs", store=store,
                      evaluator=evaluator, seed=1, **kw)


def test_sim_zero_rate_faults_match_clean_run(space, problem, tmp_path):
    clean = _sim_search(space, problem, tmp_path / "a", 6,
                        SimulatedCluster(num_gpus=2))
    zero = _sim_search(space, problem, tmp_path / "b", 6, ChaosEvaluator(
        SimulatedCluster(num_gpus=2), crash_prob=0.0, seed=1))
    assert [(r.arch_seq, r.score, r.end_time) for r in clean] == \
           [(r.arch_seq, r.score, r.end_time) for r in zero]
    assert clean.fault_stats is None
    assert zero.fault_stats["total_faults"] == 0


def test_sim_crashes_cost_virtual_time(space, problem, tmp_path,
                                       monkeypatch):
    retry = RetryPolicy(max_attempts=8, base_delay=1.0, jitter=0.0)
    clean = _sim_search(space, problem, tmp_path / "a", 8,
                        SimulatedCluster(num_gpus=2), retry=retry)

    def no_sleep(seconds):
        raise AssertionError(f"a simulated search slept {seconds}s")

    monkeypatch.setattr(time, "sleep", no_sleep)
    faulty = _sim_search(space, problem, tmp_path / "b", 8, ChaosEvaluator(
        SimulatedCluster(num_gpus=2), crash_prob=0.5, seed=1), retry=retry)
    assert len(faulty) == 8
    assert faulty.makespan > clean.makespan
    fs = faulty.fault_stats
    assert fs["by_kind"].get("injected", 0) > 0
    assert fs["retries"] > 0
    # the retry budget absorbs every crash: no candidate is lost (faults
    # shift completion times, so the *trajectory* may legitimately differ
    # from the clean run — only the zero-rate wrapper is bit-identical)
    assert fs["failed_records"] == 0
    assert all(r.ok for r in faulty)
    assert fs["backoff_seconds"] > 0


def test_sim_corrupt_writes_reach_quarantine(space, problem, tmp_path):
    store = CorruptingStore(tmp_path)
    trace = _sim_search(space, problem, store, 12,
                        SimulatedCluster(num_gpus=2))
    assert len(trace) == 12
    fs = trace.fault_stats
    # every provider read of a truncated payload hit the quarantine path
    assert fs["quarantined"] == fs["by_kind"]["corrupt_checkpoint"] > 0
    assert len(store.quarantined_keys()) == fs["quarantined"]
    assert all(r.provider_id is None for r in trace)


def test_fault_stats_roundtrip_trace_jsonl(space, problem, tmp_path):
    ev = ChaosEvaluator(SerialEvaluator(), crash_prob=1.0, seed=0)
    trace = run_search(problem, RandomSearch(space, rng=0), 2,
                       scheme="baseline", evaluator=ev, seed=0)
    path = tmp_path / "t.jsonl"
    trace.save_jsonl(path)
    from repro.cluster import Trace
    loaded = Trace.load_jsonl(path)
    assert loaded.fault_stats == trace.fault_stats
    assert [r.attempts for r in loaded] == [r.attempts for r in trace]
    assert [r.error for r in loaded] == [r.error for r in trace]


# ---------------------------------------------------------------------------
# concurrent-session journal recovery (service drain/kill mid-run)
# ---------------------------------------------------------------------------

def test_concurrent_sessions_recover_bit_identically(space, problem,
                                                     tmp_path):
    """Kill a service mid-run with several active sessions, recover,
    and check every session's replayed records are bit-identical to the
    records it had already journaled — then every session completes."""
    from repro.service import SearchService, SessionSpec, SessionState

    def spec(seed, **kw):
        return SessionSpec(
            problem=problem,
            strategy=RegularizedEvolution(space, rng=seed,
                                          population_size=4,
                                          sample_size=2),
            num_candidates=6, tenant=f"tenant{seed % 2}", seed=seed,
            scheme="lcs", **kw)

    def record_key(r):
        return (r.candidate_id, r.arch_seq, r.score, r.provider_id, r.ok)

    store = CheckpointStore(tmp_path / "store")
    svc = SearchService(evaluator=SerialEvaluator(), store=store,
                        journal_dir=tmp_path / "j")
    landed = [0]

    def drain_after_eight(record):
        landed[0] += 1
        if landed[0] == 8:          # "kill" arrives mid-run, all active
            svc.request_drain()

    handles = [svc.submit(spec(seed, on_record=drain_after_eight))
               for seed in range(3)]
    svc.drive()
    interrupted = {h.session_id: h for h in handles
                   if h.poll().state == SessionState.INTERRUPTED}
    assert interrupted                       # the drain caught some mid-run
    journaled = {}
    for sid in interrupted:
        _, records = TraceJournal.replay(tmp_path / "j" / f"{sid}.jsonl")
        journaled[sid] = [record_key(r) for r in records]

    revived = SearchService(evaluator=SerialEvaluator(), store=store,
                            journal_dir=tmp_path / "j")
    recovered = revived.recover(
        {h.session_id: spec(seed)
         for seed, h in enumerate(handles)
         if h.session_id in interrupted})
    assert {h.session_id for h in recovered} == set(interrupted)
    revived.drive()
    for handle in recovered:
        sid = handle.session_id
        assert handle.poll().state == SessionState.DONE
        trace = handle.result()
        assert len(trace) == 6
        prefix = [record_key(r) for r in trace.records[:len(journaled[sid])]]
        assert prefix == journaled[sid]      # replay is bit-identical
        if journaled[sid]:                   # a never-started session
            assert trace.fault_stats["resumed_records"] == \
                len(journaled[sid])          # resumes with no fault entry
    assert revived.recoverable_sessions() == {}
