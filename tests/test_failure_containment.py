"""Failure-score containment in the strategies.

The scheduler books contained faults as FAILURE_SCORE records; the
strategies must keep those records out of their learning state — a
failed candidate has no checkpoint, so breeding from it (or pointing
the provider policy at it) would transfer weights that were never
written.  These tests pin the `tell` exclusions and the end-to-end
invariants under chaos and resume.
"""

import numpy as np

from repro.checkpoint import CheckpointStore
from repro.cluster import run_search
from repro.cluster.resilience import ChaosEvaluator, RetryPolicy
from repro.cluster.evaluator import SerialEvaluator
from repro.nas import (
    FAILURE_SCORE,
    RegularizedEvolution,
    is_failure_score,
)
from repro.cluster.trace import TraceRecord


def _record(cid, seq, score, ok=True):
    return TraceRecord(candidate_id=cid, arch_seq=tuple(seq), score=score,
                       ok=ok)


def test_is_failure_score_contract():
    assert is_failure_score(FAILURE_SCORE)
    assert is_failure_score(FAILURE_SCORE - 1.0)
    assert is_failure_score(float("nan"))
    assert is_failure_score(float("-inf"))
    assert not is_failure_score(0.0)
    assert not is_failure_score(-999.0)   # worst legitimate score


# ---------------------------------------------------------------------------
# tell-side exclusions
# ---------------------------------------------------------------------------

def test_evolution_tell_excludes_failures(space):
    strategy = RegularizedEvolution(space, rng=0, population_size=4,
                                    sample_size=2)
    p = strategy.ask()
    strategy.tell(0, p.arch_seq, FAILURE_SCORE)
    assert len(strategy.population) == 0
    strategy.tell(1, strategy.ask().arch_seq, 0.4)
    assert [m.candidate_id for m in strategy.population] == [1]


def test_restore_skips_failed_records(space):
    """Resume replays journaled records through restore; failed ones
    must not be re-admitted into the population (but still fast-forward
    the ask counter past warmup)."""
    rng = np.random.default_rng(0)
    records = [
        _record(cid, space.sample(rng),
                FAILURE_SCORE if cid % 2 else float(cid),
                ok=cid % 2 == 0)
        for cid in range(6)
    ]
    evo = RegularizedEvolution(space, rng=0, population_size=8,
                               sample_size=2)
    evo.restore(records)
    assert [m.candidate_id for m in evo.population] == [0, 2, 4]
    assert evo._asked >= 6                   # warmup is not re-entered


# ---------------------------------------------------------------------------
# end-to-end: chaos + resume
# ---------------------------------------------------------------------------

def test_chaos_failed_candidates_never_become_providers(problem, space,
                                                        tmp_path):
    """No failed candidate may ever appear as provider_id (its
    checkpoint was never written) or as a breeding parent_id."""
    store = CheckpointStore(tmp_path)
    strategy = RegularizedEvolution(space, rng=0, population_size=4,
                                    sample_size=4)
    ev = ChaosEvaluator(SerialEvaluator(), crash_prob=0.35, seed=5)
    trace = run_search(problem, strategy, 16, scheme="lcs", store=store,
                       evaluator=ev, seed=0,
                       retry=RetryPolicy(max_attempts=1))
    failed = {r.candidate_id for r in trace if not r.ok}
    assert failed                                # chaos actually struck
    assert len(trace) == 16
    for r in trace:
        assert r.provider_id not in failed
        assert r.parent_id not in failed
    assert not {m.candidate_id for m in strategy.population} & failed


def test_resume_does_not_readmit_failed_records(problem, space, tmp_path):
    journal = tmp_path / "run.jsonl"
    ev = ChaosEvaluator(SerialEvaluator(), crash_prob=0.4, seed=7)
    first = RegularizedEvolution(space, rng=0, population_size=4,
                                 sample_size=2)
    trace = run_search(problem, first, 8, evaluator=ev, seed=0,
                       journal=journal)
    failed = {r.candidate_id for r in trace if not r.ok}
    assert failed and len(failed) < 8            # mixed outcome run

    resumed = RegularizedEvolution(space, rng=0, population_size=4,
                                   sample_size=2)
    trace2 = run_search(problem, resumed, 12, seed=0, resume=journal)
    assert len(trace2) == 12
    pop_ids = {m.candidate_id for m in resumed.population}
    assert not pop_ids & failed
    # the replayed failures are still in the trace (accounting intact)
    assert {r.candidate_id for r in trace2 if not r.ok} >= failed
