"""SimulatedCluster: virtual clock + real scores, under the one loop."""

import heapq
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cluster.scheduler as scheduler
from repro.checkpoint import CheckpointStore
from repro.cluster import (
    CostModel,
    SearchDriver,
    SerialEvaluator,
    SimulatedCluster,
    run_search,
)
from repro.nas import RandomSearch, RegularizedEvolution


def strategy_for(space, seed=0):
    return RegularizedEvolution(space, rng=seed, population_size=4,
                                sample_size=2)


def simulate(problem, tmp_path, n, gpus=4, scheme="lcs", seed=0,
             strategy=None, **kw):
    store = None if scheme == "baseline" else \
        CheckpointStore(tmp_path / f"store_{scheme}_g{gpus}")
    return run_search(problem, strategy or strategy_for(problem.space), n,
                      scheme=scheme, store=store, seed=seed,
                      evaluator=SimulatedCluster(num_gpus=gpus, **kw))


def test_cost_model_arithmetic():
    cm = CostModel(base_seconds=10.0, seconds_per_param=1e-3,
                   dispatch_latency=0.5, ckpt_latency=0.1,
                   write_bandwidth=1e6, read_bandwidth=2e6)
    assert cm.train_seconds(1000) == pytest.approx(11.0)
    assert cm.save_seconds(1_000_000) == pytest.approx(1.1)
    assert cm.load_seconds(1_000_000) == pytest.approx(0.6)


def test_virtual_clock_advances(problem, tmp_path):
    trace = simulate(problem, tmp_path, 6, gpus=2)
    assert len(trace) == 6
    for r in trace:
        assert r.end_time > r.start_time >= 0.0
    assert trace.makespan > 0.0
    assert trace.busy_time <= 2 * trace.makespan


@settings(max_examples=40, deadline=None)
@given(gpus=st.integers(1, 32), seed=st.integers(0, 99),
       scheme=st.sampled_from(["baseline", "lp", "lcs"]),
       n=st.integers(1, 12))
def test_busy_time_fits_in_the_fleet(problem, gpus, seed, scheme, n):
    """No fleet is busier than its GPUs over the makespan: ``busy_time
    <= num_gpus * makespan``, so a utilisation (and Fig. 10's
    work-normalised efficiency) never exceeds 1."""
    with tempfile.TemporaryDirectory() as tmp:
        trace = simulate(problem, Path(tmp), n, gpus=gpus, scheme=scheme,
                         seed=seed, strategy=strategy_for(problem.space,
                                                          seed))
    assert len(trace) == n
    assert trace.busy_time <= gpus * trace.makespan


def test_more_gpus_do_not_slow_the_run(problem, tmp_path):
    t_slow = simulate(problem, tmp_path, 8, gpus=1, scheme="baseline")
    t_fast = simulate(problem, tmp_path, 8, gpus=4, scheme="baseline")
    assert t_fast.makespan <= t_slow.makespan


def test_baseline_has_zero_overhead(problem, tmp_path):
    trace = simulate(problem, tmp_path, 6, scheme="baseline")
    assert trace.total_overhead == 0.0
    assert all(r.ckpt_bytes == 0 for r in trace)


def test_transfer_scheme_pays_checkpoint_io(problem, tmp_path):
    """Modelled I/O, never wall time: every read and save costs the
    cost model's seconds for its payload bytes, in ``io_blocked`` and
    inside the record's span."""
    cm = CostModel()
    trace = simulate(problem, tmp_path, 8)
    assert trace.total_overhead > 0.0
    assert any(r.ckpt_bytes > 0 for r in trace.ok_records())
    for r in trace:
        saved = cm.save_seconds(r.ckpt_bytes) if r.ckpt_bytes else 0.0
        assert r.io_hidden == 0.0
        assert r.overhead == r.io_blocked >= saved
        assert r.duration == pytest.approx(
            cm.train_seconds(r.num_params) + r.io_blocked)
    assert trace.io_stats["drain_seconds"] == 0.0


def test_scores_are_real_not_simulated(problem, tmp_path):
    trace = simulate(problem, tmp_path, 5)
    scores = [r.score for r in trace.ok_records()]
    assert len(set(scores)) > 1              # actual training happened
    assert all(-1.0 <= s <= 1.0 for s in scores)


@pytest.mark.parametrize("scheme", ["baseline", "lp", "lcs"])
def test_one_gpu_simulation_matches_run_search(problem, tmp_path, scheme):
    """At one GPU the fleet proposes, transfers, trains and checkpoints
    exactly what ``run_search`` does on its serial evaluator."""
    def view(trace):
        return [(r.candidate_id, r.arch_seq, r.score, r.provider_id,
                 r.transferred, r.ckpt_bytes) for r in trace]

    simulated = simulate(problem, tmp_path, 10, gpus=1, scheme=scheme,
                         seed=5, strategy=strategy_for(problem.space, 3))
    real = run_search(problem, strategy_for(problem.space, seed=3), 10,
                      scheme=scheme, seed=5, evaluator=SerialEvaluator(),
                      store=CheckpointStore(tmp_path / "real"))
    assert view(simulated) == view(real)
    if scheme != "baseline":
        assert any(r.transferred for r in real)


def test_simcluster_without_gate_keeps_stats_unset(problem, tmp_path):
    """``static_stats`` is a kept name that no simulated run sets."""
    trace = simulate(problem, tmp_path, 3, gpus=2,
                     strategy=RandomSearch(problem.space, rng=0))
    assert trace.static_stats is None


# ---------------------------------------------------------------------------
# the ordering rule: the driver's step() tells what the heap loop told
# ---------------------------------------------------------------------------

def heap_loop(durations, gpus, latency):
    """The simulator's retired loop, without training: before each ask,
    tell every completion due by the dispatch instant.  Returns the
    asks and tells in order, and each candidate's end time."""
    events, ends, free, done, dispatcher = [], {}, [0.0] * gpus, [], 0.0
    for cid, seconds in enumerate(durations):
        at = max(dispatcher, heapq.heappop(free))
        while done and done[0][0] <= at:
            events.append(("tell", heapq.heappop(done)[1]))
        events.append(("ask", cid))
        dispatcher = at + latency
        ends[cid] = dispatcher + seconds
        heapq.heappush(done, (ends[cid], cid))
        heapq.heappush(free, ends[cid])
    while done:
        events.append(("tell", heapq.heappop(done)[1]))
    return events, ends


class _Logged:
    """A strategy that proposes one fixed architecture and logs the
    loop's asks and tells."""

    def __init__(self):
        self.events, self.asked = [], 0

    def ask(self):
        self.events.append(("ask", self.asked))
        self.asked += 1
        return SimpleNamespace(arch_seq=(0,), parent_id=None)

    def tell(self, candidate_id, arch_seq, score):
        self.events.append(("tell", candidate_id))


@settings(max_examples=60, deadline=None)
@given(gpus=st.integers(1, 32), latency=st.sampled_from([0.0, 0.5, 2.0]),
       steps=st.lists(st.integers(0, 12), min_size=1, max_size=48))
def test_fleet_under_the_driver_interleaves_as_the_heap_loop(gpus, latency,
                                                             steps):
    """Durations on a 0.25 s grid, so completions tie with each other
    and with dispatch instants."""
    cost = CostModel(base_seconds=1.0, seconds_per_param=0.25,
                     dispatch_latency=latency)

    def train(problem, arch_seq, *, seed, **kw):
        return SimpleNamespace(ok=True, score=0.0, error=None,
                               num_params=steps[seed], weights=None,
                               transfer_stats=None)

    strategy = _Logged()
    original = scheduler.estimate_candidate
    scheduler.estimate_candidate = train
    try:
        driver = SearchDriver(SimpleNamespace(name="fake", space=None),
                              strategy, len(steps),
                              evaluator=SimulatedCluster(gpus, cost))
        while not driver.done:
            driver.step()
        trace = driver.finalize()
    finally:
        scheduler.estimate_candidate = original
    events, ends = heap_loop([1.0 + 0.25 * k for k in steps], gpus,
                             latency)
    assert strategy.events == events
    assert {r.candidate_id: r.end_time for r in trace} == ends
