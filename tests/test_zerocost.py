"""Zero-cost proxy tier: scorers, the cascade gate, and its wiring.

The admission cascade is static analysis (free) → init-time proxy
score (one forward/backward on a fixed batch) → partial training.
These tests pin the scorer contracts (deterministic, finite on
buildable architectures, ``-inf`` instead of raising on anything
else), the gate's per-tier accounting invariants, and the wiring
through a strategy's ``gate=`` into ``trace.static_stats``;
``SimulatedCluster`` runs no gate.
"""

import numpy as np
import pytest

from repro.analysis import (
    SCORERS,
    ZeroCostGate,
    get_scorer,
)
from repro.analysis.zerocost import proxy_batch
from repro.apps import make_image_dataset
from repro.checkpoint import CheckpointStore
from repro.cluster import Trace, run_search
from repro.cluster.simcluster import SimulatedCluster
from repro.experiments.zerocost import _cascade_scores, _sample_valid
from repro.metrics import kendall_tau
from repro.nas import (
    Problem,
    RandomSearch,
    RegularizedEvolution,
    estimate_candidate,
)

from test_analysis_gate import INVALID_SEQ, VALID_SEQ, build_strict_space


@pytest.fixture(scope="module")
def strict_problem():
    dataset = make_image_dataset(n_train=32, n_val=16, height=6, width=6,
                                 channels=1, classes=4, seed=0)
    return Problem("strict", build_strict_space(), dataset,
                   learning_rate=1e-2, batch_size=16, estimation_epochs=1,
                   max_epochs=2, es_min_epochs=1)


# ---------------------------------------------------------------------------
# scorers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(SCORERS))
def test_scorer_finite_and_deterministic(problem, name):
    scorer = get_scorer(name)
    rng = np.random.default_rng(0)
    seqs = [problem.space.sample(rng) for _ in range(4)]
    first = [scorer.score(problem, s, seed=0) for s in seqs]
    again = [scorer.score(problem, s, seed=0) for s in seqs]
    assert all(np.isfinite(v) for v in first)
    assert first == again                      # bit-identical re-score
    assert len(set(first)) > 1                 # actually ranks the space


@pytest.mark.parametrize("name", sorted(SCORERS))
def test_scorer_returns_neg_inf_on_unbuildable(strict_problem, name):
    # INVALID_SEQ raises BuildError in the builder; the scorer contract
    # is "never raise" so the gate can treat it as a bottom score
    assert get_scorer(name).score(strict_problem, INVALID_SEQ) \
        == float("-inf")


def test_synflow_is_data_agnostic(problem):
    """Synflow never touches the batch — scoring with and without one
    must agree (the probe is all-ones, labels unused)."""
    scorer = get_scorer("synflow")
    seq = problem.space.sample(np.random.default_rng(1))
    batch = proxy_batch(problem.dataset, 8)
    assert scorer.score(problem, seq) == scorer.score(problem, seq,
                                                      batch=batch)


def test_get_scorer_resolution():
    scorer = get_scorer("ntk")
    assert get_scorer(scorer) is scorer        # instances pass through
    with pytest.raises(ValueError, match="unknown zero-cost scorer"):
        get_scorer("params")


# ---------------------------------------------------------------------------
# the cascade gate: accounting invariants
# ---------------------------------------------------------------------------

def test_gate_tier_partition_invariants(strict_problem):
    gate = ZeroCostGate(strict_problem, warmup=4, quantile=0.5, seed=0)
    rng = np.random.default_rng(0)
    for _ in range(40):
        gate.admits(strict_problem.space.sample(rng))
    s = gate.stats
    assert s.checked == 40
    assert s.checked == s.admitted + s.rejected
    assert s.rejected == s.static_rejected + s.proxy_rejected
    assert s.proxy_checked == s.checked - s.static_rejected
    assert s.static_rejected > 0 and s.proxy_rejected > 0
    # by_code holds *static* diagnostics only — the proxy tier rejects
    # by rank, not by diagnostic
    assert sum(s.by_code.values()) >= s.static_rejected
    assert s.proxy_seconds > 0.0


def test_gate_statically_invalid_never_scored(strict_problem):
    gate = ZeroCostGate(strict_problem, warmup=2)
    assert not gate.admits(INVALID_SEQ)
    assert gate.stats.static_rejected == 1
    assert gate.stats.proxy_scored == 0        # no tensor was allocated


def test_gate_warmup_admits_then_quantile_rejects(strict_problem):
    gate = ZeroCostGate(strict_problem, warmup=6, quantile=0.5, seed=0)
    rng = np.random.default_rng(2)
    decisions = []
    while gate.stats.proxy_checked < 30:
        decisions.append(gate.admits(strict_problem.space.sample(rng)))
    # every proxy-checked candidate during warmup was admitted
    assert gate.stats.proxy_rejected > 0
    assert gate.stats.admitted >= 6


def test_gate_proxy_scores_are_cached(strict_problem):
    gate = ZeroCostGate(strict_problem, warmup=2)
    for _ in range(5):
        gate.admits(VALID_SEQ)
    assert gate.stats.proxy_scored == 1        # 4 cache hits
    assert gate.stats.proxy_checked == 5


def test_gate_absolute_threshold_mode(strict_problem):
    low = ZeroCostGate(strict_problem, threshold=-1e9)
    high = ZeroCostGate(strict_problem, threshold=1e9)
    assert low.admits(VALID_SEQ)
    assert not high.admits(VALID_SEQ)
    assert high.stats.proxy_rejected == 1


def test_gate_validates_configuration(strict_problem):
    with pytest.raises(ValueError):
        ZeroCostGate(strict_problem, quantile=1.0)
    with pytest.raises(ValueError):
        ZeroCostGate(strict_problem, warmup=0)


# ---------------------------------------------------------------------------
# wiring: run_search and the simulator
# ---------------------------------------------------------------------------

def test_run_search_zero_cost_cascade(strict_problem, tmp_path):
    strategy = RegularizedEvolution(
        strict_problem.space, rng=np.random.default_rng(3),
        population_size=8, sample_size=4,
        gate=ZeroCostGate(strict_problem, warmup=4, quantile=0.4))
    trace = run_search(strict_problem, strategy, 12, seed=3, name="zc")
    assert len(trace) == 12
    assert all(r.ok for r in trace.records)
    stats = trace.static_stats
    assert stats["checked"] == stats["admitted"] + stats["rejected"]
    assert stats["rejected"] == (stats["static_rejected"]
                                 + stats["proxy_rejected"])
    assert stats["proxy_rejected"] > 0
    assert stats["static_rejected"] > 0
    # the new per-tier keys survive the jsonl round-trip
    loaded = Trace.load_jsonl(trace.save_jsonl(tmp_path / "zc.jsonl"))
    assert loaded.static_stats == stats
    # the cascade ranking, with the bottom quarter by proxy ranked below
    # every survivor, keeps most of the partial-training ranking
    seqs, _ = _sample_valid(strict_problem, 10, np.random.default_rng(7))
    gate = ZeroCostGate(strict_problem, warmup=2, seed=0)
    proxy = [gate.proxy_score(s) for s in seqs]
    partial = [estimate_candidate(strict_problem, s, seed=0).score
               for s in seqs]
    combined, _ = _cascade_scores(proxy, partial, 0.25)
    assert kendall_tau(combined, partial) >= 0.5


def test_simcluster_without_gate_keeps_stats_unset(strict_problem,
                                                   tmp_path):
    sim = SimulatedCluster(strict_problem, CheckpointStore(tmp_path),
                           num_gpus=2)
    trace = sim.run(RandomSearch(strict_problem.space,
                                 rng=np.random.default_rng(0)),
                    3, scheme="lcs", seed=0)
    assert trace.static_stats is None
