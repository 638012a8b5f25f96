"""SimulatedCluster: virtual clock + real scores."""

import pytest

from repro.checkpoint import CheckpointStore
from repro.cluster import CostModel, SimulatedCluster, run_search
from repro.nas import RandomSearch, RegularizedEvolution


def make_cluster(problem, tmp_path, gpus=4, store=True, **kw):
    s = CheckpointStore(tmp_path / f"store_g{gpus}") if store else None
    return SimulatedCluster(problem, s, num_gpus=gpus, **kw)


def strategy_for(space, seed=0):
    return RegularizedEvolution(space, rng=seed, population_size=4,
                                sample_size=2)


def test_cost_model_arithmetic():
    cm = CostModel(base_seconds=10.0, seconds_per_param=1e-3,
                   dispatch_latency=0.5, ckpt_latency=0.1,
                   write_bandwidth=1e6, read_bandwidth=2e6)
    assert cm.train_seconds(1000, 1.0) == pytest.approx(11.0)
    assert cm.train_seconds(1000, 2.0) == pytest.approx(5.5)
    assert cm.save_seconds(1_000_000) == pytest.approx(1.1)
    assert cm.load_seconds(1_000_000) == pytest.approx(0.6)


def test_virtual_clock_advances(problem, tmp_path):
    cluster = make_cluster(problem, tmp_path, gpus=2)
    trace = cluster.run(strategy_for(problem.space), 6, scheme="lcs",
                        seed=0)
    assert len(trace) == 6
    for r in trace:
        assert r.end_time > r.start_time >= 0.0
    assert trace.makespan > 0.0
    assert trace.busy_time <= 2 * trace.makespan


def test_more_gpus_do_not_slow_the_run(problem, tmp_path):
    slow = make_cluster(problem, tmp_path, gpus=1)
    fast = make_cluster(problem, tmp_path, gpus=4)
    t_slow = slow.run(strategy_for(problem.space), 8, scheme="baseline",
                      seed=0)
    t_fast = fast.run(strategy_for(problem.space), 8, scheme="baseline",
                      seed=0)
    assert t_fast.makespan <= t_slow.makespan


def test_baseline_has_zero_overhead(problem, tmp_path):
    cluster = make_cluster(problem, tmp_path, store=False)
    trace = cluster.run(strategy_for(problem.space), 6, scheme="baseline",
                        seed=0)
    assert trace.total_overhead == 0.0
    assert all(r.ckpt_bytes == 0 for r in trace)


def test_transfer_scheme_pays_checkpoint_io(problem, tmp_path):
    cluster = make_cluster(problem, tmp_path)
    trace = cluster.run(strategy_for(problem.space), 8, scheme="lcs",
                        seed=0)
    assert trace.total_overhead > 0.0
    assert any(r.ckpt_bytes > 0 for r in trace.ok_records())


def test_heterogeneous_gpu_speeds(problem, tmp_path):
    uniform = make_cluster(problem, tmp_path, gpus=2)
    skewed = SimulatedCluster(
        problem, CheckpointStore(tmp_path / "skew"), num_gpus=2,
        gpu_speeds=(1.0, 0.25))
    t_uniform = uniform.run(strategy_for(problem.space), 6,
                            scheme="baseline", seed=0)
    t_skewed = skewed.run(strategy_for(problem.space), 6,
                          scheme="baseline", seed=0)
    assert t_skewed.makespan > t_uniform.makespan


def test_scores_are_real_not_simulated(problem, tmp_path):
    cluster = make_cluster(problem, tmp_path)
    trace = cluster.run(strategy_for(problem.space), 5, scheme="lcs",
                        seed=0)
    scores = [r.score for r in trace.ok_records()]
    assert len(set(scores)) > 1              # actual training happened
    assert all(-1.0 <= s <= 1.0 for s in scores)


@pytest.mark.parametrize("scheme", ["baseline", "lp", "lcs"])
def test_one_gpu_simulation_matches_run_search(problem, tmp_path, scheme):
    """The figures' loop is the real one: at one GPU the simulator
    proposes, transfers, trains and checkpoints exactly what
    ``run_search`` does with its default serial evaluator."""
    def view(trace):
        return [(r.candidate_id, r.arch_seq, r.score, r.provider_id,
                 r.transferred, r.ckpt_bytes) for r in trace]

    simulated = make_cluster(problem, tmp_path, gpus=1).run(
        strategy_for(problem.space, seed=3), 10, scheme=scheme, seed=5)
    real = run_search(problem, strategy_for(problem.space, seed=3), 10,
                      scheme=scheme, seed=5,
                      store=CheckpointStore(tmp_path / "real"))
    assert view(simulated) == view(real)
    if scheme != "baseline":
        assert any(r.transferred for r in real)


def test_simcluster_without_gate_keeps_stats_unset(problem, tmp_path):
    """``static_stats`` is a kept name that no simulated run sets."""
    trace = make_cluster(problem, tmp_path, gpus=2).run(
        RandomSearch(problem.space, rng=0), 3, scheme="lcs", seed=0)
    assert trace.static_stats is None
