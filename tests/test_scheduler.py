"""run_search: schemes, stores, evaluators, traces."""

import json

import pytest

from repro.checkpoint import CheckpointStore
from repro.cluster import (
    SCHEMES,
    ThreadPoolEvaluator,
    checkpoint_key,
    run_search,
)
from repro.nas import RandomSearch, RegularizedEvolution


def test_schemes_constant():
    assert SCHEMES == ("baseline", "lp", "lcs")


def test_checkpoint_key_format():
    assert checkpoint_key(7) == "cand_000007"


def test_baseline_needs_no_store(space, problem):
    strategy = RandomSearch(space, rng=0)
    trace = run_search(problem, strategy, 5, scheme="baseline", seed=0)
    assert len(trace) == 5
    ok = trace.ok_records()
    assert ok
    assert all(not r.transferred for r in ok)
    assert all(r.scheme == "baseline" for r in trace)


def test_transfer_scheme_requires_store(space, problem):
    with pytest.raises(ValueError):
        run_search(problem, RandomSearch(space, rng=0), 3, scheme="lcs")


def test_unknown_scheme_rejected(space, problem, tmp_path):
    with pytest.raises(ValueError):
        run_search(problem, RandomSearch(space, rng=0), 3, scheme="warm",
                   store=CheckpointStore(tmp_path))


def test_baseline_does_not_checkpoint(space, problem, tmp_path):
    store = CheckpointStore(tmp_path)
    run_search(problem, RandomSearch(space, rng=0), 4, scheme="baseline",
               store=store, seed=0)
    assert list(store.root.iterdir()) == []


def test_lcs_run_checkpoints_and_transfers(space, problem, tmp_path):
    store = CheckpointStore(tmp_path)
    strategy = RegularizedEvolution(space, rng=0, population_size=4,
                                    sample_size=2)
    trace = run_search(problem, strategy, 12, scheme="lcs", store=store,
                       seed=0)
    ok = trace.ok_records()
    # every success checkpointed, and nothing else
    assert {p.stem for p in store.root.glob("*.bin")} == \
        {checkpoint_key(r.candidate_id) for r in ok}
    transferred = [r for r in ok if r.transferred]
    assert transferred                       # evolution children warm-start
    for r in transferred:
        assert r.provider_id is not None
        assert r.transfer_coverage > 0.0
    sidecar = store.meta_path(checkpoint_key(ok[0].candidate_id))
    meta = json.loads(sidecar.read_text())["__meta__"]
    assert meta["scheme"] == "lcs"
    assert tuple(meta["arch_seq"]) == tuple(ok[0].arch_seq)


def test_run_search_is_reproducible(space, problem, tmp_path):
    def run(root):
        store = CheckpointStore(root)
        strategy = RegularizedEvolution(space, rng=1, population_size=4,
                                        sample_size=2)
        trace = run_search(problem, strategy, 8, scheme="lp", store=store,
                           seed=1)
        return [(r.candidate_id, r.arch_seq, r.score) for r in trace]

    assert run(tmp_path / "a") == run(tmp_path / "b")


def test_thread_evaluator_matches_serial_count(space, problem, tmp_path):
    store = CheckpointStore(tmp_path)
    strategy = RandomSearch(space, rng=0)
    with ThreadPoolEvaluator(num_workers=2) as evaluator:
        trace = run_search(problem, strategy, 6, scheme="lcs", store=store,
                           evaluator=evaluator, seed=0)
    assert len(trace) == 6
    assert sorted(r.candidate_id for r in trace) == list(range(6))
