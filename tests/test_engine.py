"""Compiled StepPlan engine: eager equivalence, gradients, cache, resume.

The engine's contract is *bit*-identicality — not approximate closeness —
so every equivalence assertion here uses exact comparison
(``np.array_equal`` / ``==``), never ``allclose``.
"""

import gc
import threading
import tracemalloc

import numpy as np
import pytest

from repro.apps import get_app, make_image_dataset
from repro.cluster import ChaosEvaluator, SerialEvaluator, run_search
from repro.nas import (
    ActivationOp,
    AvgPool1DOp,
    AvgPool2DOp,
    BatchNormOp,
    ConcatenateOp,
    Conv1DOp,
    Conv2DOp,
    DenseOp,
    FlattenOp,
    MaxPool1DOp,
    MaxPool2DOp,
    RandomSearch,
    SearchSpace,
)
from repro.nas.estimation import estimate_candidate
from repro.tensor import fit, get_loss
from repro.tensor.engine import (
    PlanCache,
    PlanUnsupportedError,
    StepPlan,
    network_signature,
)
from repro.tensor.training import evaluate

#: fixed per-app candidates
APP_SEQS = {
    "cifar10": (4, 1, 1, 4, 0, 1, 12, 1, 1, 12, 0, 1, 12, 1, 1, 12, 0, 1,
                3, 2, 0),
    "mnist": (6, 1, 1, 2, 0, 0, 0, 0, 0, 4, 2),
    "nt3": (5, 1, 3, 0, 1, 0, 0, 0),
    "uno": (6, 2, 1, 2, 1, 0, 0, 0, 0, 6, 2, 2, 4),
}


def _fit_one(prob, seq, engine, epochs=2):
    ds = prob.dataset
    model = prob.build_model(seq, rng=0)
    hist = fit(model, ds.x_train, ds.y_train, x_val=ds.x_val,
               y_val=ds.y_val, epochs=epochs, batch_size=prob.batch_size,
               loss=prob.loss, metric=prob.objective,
               optimizer=prob.optimizer, learning_rate=prob.learning_rate,
               rng=0, engine=engine)
    return model, hist


# ---------------------------------------------------------------------------
# plan-vs-eager bit-identicality on every app
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("app", sorted(APP_SEQS))
def test_fit_plan_matches_eager_bit_identically(app):
    prob = get_app(app).problem(seed=0)
    seq = prob.space.validate_seq(APP_SEQS[app])
    model_e, hist_e = _fit_one(prob, seq, "eager")
    model_p, hist_p = _fit_one(prob, seq, "plan")
    assert hist_p.loss == hist_e.loss
    assert hist_p.val_score == hist_e.val_score
    we, wp = model_e.get_weights(), model_p.get_weights()
    assert we.keys() == wp.keys()
    for key in we:
        assert np.array_equal(we[key], wp[key]), key
    ds = prob.dataset
    assert evaluate(model_p, ds.x_val, ds.y_val, prob.objective) == \
        evaluate(model_e, ds.x_val, ds.y_val, prob.objective)


def test_estimate_candidate_plan_matches_eager():
    prob = get_app("nt3").problem(seed=0)
    seq = prob.space.validate_seq(APP_SEQS["nt3"])
    eager = estimate_candidate(prob, seq, seed=3, engine="eager")
    plan = estimate_candidate(prob, seq, seed=3, engine="plan")
    assert plan.ok and eager.ok
    assert plan.score == eager.score


# ---------------------------------------------------------------------------
# finite-difference gradient checks through every fused kernel
# ---------------------------------------------------------------------------

EPS = 1e-3
RTOL = 5e-2


def _fixed_space(input_shape, ops):
    space = SearchSpace("plan-gradcheck", input_shape)
    for i, op in enumerate(ops):
        space.add_fixed(op, name=f"n{i}")
    return space


def _check_plan_gradients(space, loss="mse"):
    """FD-check the plan's gradients against its *own* loss.

    ``run_step`` never touches parameters (the optimizer stays in the
    training loop), so the plan's reported loss is a pure function of
    the parameters it reads in place — central differences through
    repeated ``run_step`` calls are exact.  This checks the fused
    kernels in *training* mode (batch statistics for BatchNorm), which
    the eager gradient tests cannot do.
    """
    rng = np.random.default_rng(0)
    network = space.build_network((), np.random.default_rng(1))
    n = 4
    shapes = network.input_shapes
    xs = [rng.normal(size=(n,) + tuple(s)).astype(np.float64)
          for s in shapes]
    x = xs if len(xs) > 1 else xs[0]
    out_dim = network.layers[-1].output_shape[0]
    if loss == "categorical_crossentropy":
        y = np.eye(out_dim, dtype=np.float64)[rng.integers(0, out_dim, n)]
    else:
        y = rng.normal(size=(n, out_dim))
    plan = StepPlan(network, n, [a.dtype for a in xs], y.dtype,
                    y.shape[1:], loss)
    idx = np.arange(n)
    plan.run_step(x, y, idx)
    analytic = {(name, pname): layer.grads[pname].copy()
                for name, layer, pname in network.trainable()}

    checked = 0
    for name, layer, pname in network.trainable():
        flat = layer.params[pname].reshape(-1)
        pick = rng.choice(flat.size, size=min(4, flat.size), replace=False)
        for i in pick:
            orig = flat[i]
            flat[i] = orig + EPS
            hi = plan.run_step(x, y, idx)
            flat[i] = orig - EPS
            lo = plan.run_step(x, y, idx)
            flat[i] = orig
            numeric = (hi - lo) / (2 * EPS)
            a = float(analytic[(name, pname)].reshape(-1)[i])
            assert a == pytest.approx(numeric, rel=RTOL, abs=1e-3), (
                f"{name}.{pname}[{i}]: analytic={a} numeric={numeric}")
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("act", ["relu", "tanh", "sigmoid", "elu"])
def test_plan_dense_fused_activation_gradients(act):
    _check_plan_gradients(
        _fixed_space((5,), [DenseOp(7, act), DenseOp(3)]))


def test_plan_softmax_crossentropy_gradients():
    _check_plan_gradients(
        _fixed_space((5,), [DenseOp(6, "relu"), DenseOp(3)]),
        loss="categorical_crossentropy")


def test_plan_mae_gradients():
    _check_plan_gradients(
        _fixed_space((5,), [DenseOp(6, "tanh"), DenseOp(2)]), loss="mae")


def test_plan_conv2d_maxpool_gradients():
    _check_plan_gradients(
        _fixed_space((6, 6, 2), [
            Conv2DOp(3, kernel_size=3, activation="tanh"),
            MaxPool2DOp(), FlattenOp(), DenseOp(3),
        ]),
        loss="categorical_crossentropy")


def test_plan_conv2d_avgpool_gradients():
    _check_plan_gradients(
        _fixed_space((6, 6, 2), [
            Conv2DOp(3, kernel_size=3, activation="relu"),
            AvgPool2DOp(), FlattenOp(), DenseOp(3),
        ]))


def test_plan_conv1d_maxpool_gradients():
    _check_plan_gradients(
        _fixed_space((8, 2), [
            Conv1DOp(3, kernel_size=3, activation="tanh"),
            MaxPool1DOp(), FlattenOp(), DenseOp(3),
        ]))


def test_plan_conv1d_avgpool_gradients():
    _check_plan_gradients(
        _fixed_space((8, 2), [
            Conv1DOp(3, kernel_size=3, activation="elu"),
            AvgPool1DOp(), FlattenOp(), DenseOp(3),
        ]))


def test_plan_batchnorm_training_mode_gradients():
    _check_plan_gradients(
        _fixed_space((5,), [DenseOp(6), BatchNormOp(), DenseOp(3)]))


def test_plan_standalone_activation_gradients():
    _check_plan_gradients(
        _fixed_space((5,), [DenseOp(6), ActivationOp("tanh"), DenseOp(3)]))


def test_plan_multi_input_concat_gradients():
    space = SearchSpace("plan-gradcheck", [(4,), (3,)])
    space.add_fixed(DenseOp(5, "relu"), name="t0", after="input:0")
    space.add_fixed(DenseOp(5, "tanh"), name="t1", after="input:1")
    space.add_fixed(ConcatenateOp(), name="cat", after=["t0", "t1"])
    space.add_fixed(DenseOp(3), name="head")
    _check_plan_gradients(space)


def test_plan_fanout_accumulated_gradients():
    # one producer feeding two consumers exercises the gradient fan-in
    # accumulator path
    space = SearchSpace("plan-gradcheck", (5,))
    space.add_fixed(DenseOp(6, "relu"), name="shared")
    space.add_fixed(DenseOp(4, "relu"), name="a", after="shared")
    space.add_fixed(DenseOp(4, "tanh"), name="b", after="shared")
    space.add_fixed(ConcatenateOp(), name="cat", after=["a", "b"])
    space.add_fixed(DenseOp(3), name="head")
    _check_plan_gradients(space)


# ---------------------------------------------------------------------------
# fallbacks and plan limits
# ---------------------------------------------------------------------------


def _tiny_dense_setup(n_train=32, classes=4):
    ds = make_image_dataset(n_train=n_train, n_val=16, height=6, width=6,
                            channels=2, classes=classes, seed=0)
    space = _fixed_space((6, 6, 2), [FlattenOp(), DenseOp(8, "relu"),
                                     DenseOp(classes)])
    return ds, space


def _tiny_fit(ds, space, engine, loss="categorical_crossentropy",
              batch_size=16):
    model = space.build_network((), np.random.default_rng(0))
    hist = fit(model, ds.x_train, ds.y_train, x_val=ds.x_val,
               y_val=ds.y_val, epochs=2, batch_size=batch_size,
               loss=loss, metric=ds.metric, rng=0, engine=engine)
    return model, hist


def test_ragged_tail_batch_falls_back_per_batch():
    # n_train=40, batch=16 -> two planned batches + one eager tail of 8;
    # the mixed run must still be bit-identical to all-eager
    ds, space = _tiny_dense_setup(n_train=40)
    model_e, hist_e = _tiny_fit(ds, space, "eager")
    model_p, hist_p = _tiny_fit(ds, space, "plan")
    assert hist_p.loss == hist_e.loss
    assert hist_p.val_score == hist_e.val_score
    we, wp = model_e.get_weights(), model_p.get_weights()
    assert all(np.array_equal(we[k], wp[k]) for k in we)


def test_callable_loss_falls_back_to_eager():
    # a custom callable loss cannot be plan-keyed; fit must silently run
    # the eager path, not fail
    ds, space = _tiny_dense_setup()
    mse = get_loss("mse")

    def custom(pred, y):
        return mse(pred, y)

    model_e, hist_e = _tiny_fit(ds, space, "eager", loss=custom)
    model_p, hist_p = _tiny_fit(ds, space, "plan", loss=custom)
    assert hist_p.loss == hist_e.loss


def test_unsupported_engine_rejected():
    ds, space = _tiny_dense_setup()
    with pytest.raises(ValueError, match="engine"):
        _tiny_fit(ds, space, "jit")


def test_plan_key_rejects_callable_loss():
    ds, space = _tiny_dense_setup()
    model = space.build_network((), np.random.default_rng(0))
    with pytest.raises(PlanUnsupportedError):
        StepPlan(model, 16, [ds.x_train.dtype], ds.y_train.dtype,
                 ds.y_train.shape[1:], lambda p, y: (0.0, p))


def test_bind_rejects_structurally_different_network():
    ds, space = _tiny_dense_setup()
    model = space.build_network((), np.random.default_rng(0))
    plan = StepPlan(model, 16, [ds.x_train.dtype], ds.y_train.dtype,
                    ds.y_train.shape[1:], "categorical_crossentropy")
    other_space = _fixed_space((6, 6, 2), [FlattenOp(), DenseOp(12, "relu"),
                                           DenseOp(4)])
    other = other_space.build_network((), np.random.default_rng(0))
    with pytest.raises(ValueError, match="signature"):
        plan.bind(other)


def test_signature_shared_across_initializations():
    prob = get_app("mnist").problem(seed=0)
    seq = prob.space.validate_seq(APP_SEQS["mnist"])
    sig_a = network_signature(prob.build_model(seq, rng=0))
    sig_b = network_signature(prob.build_model(seq, rng=7))
    assert sig_a == sig_b


# ---------------------------------------------------------------------------
# PlanCache: stats, reuse, eviction, thread-safety
# ---------------------------------------------------------------------------


def test_plan_cache_hit_miss_and_reuse():
    ds, space = _tiny_dense_setup()
    cache = PlanCache()
    model = space.build_network((), np.random.default_rng(0))
    args = (16, [ds.x_train.dtype], ds.y_train.dtype,
            ds.y_train.shape[1:], "categorical_crossentropy")
    plan = cache.acquire(model, *args)
    cache.release(plan)
    # same structure, different init: must reuse the traced instance
    again = cache.acquire(space.build_network((), np.random.default_rng(1)),
                          *args)
    assert again is plan
    stats = cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert stats["traces"] == 1 and stats["trace_seconds"] > 0


def test_plan_cache_checked_out_instances_are_distinct():
    ds, space = _tiny_dense_setup()
    cache = PlanCache()
    args = (16, [ds.x_train.dtype], ds.y_train.dtype,
            ds.y_train.shape[1:], "categorical_crossentropy")
    a = cache.acquire(space.build_network((), np.random.default_rng(0)),
                      *args)
    b = cache.acquire(space.build_network((), np.random.default_rng(1)),
                      *args)
    assert a is not b                    # concurrent checkouts never share


def test_plan_cache_lru_eviction():
    ds = make_image_dataset(n_train=32, n_val=16, height=6, width=6,
                            channels=2, classes=4, seed=0)
    cache = PlanCache(max_plans=2)
    args = (16, [ds.x_train.dtype], ds.y_train.dtype,
            ds.y_train.shape[1:], "categorical_crossentropy")
    for units in (6, 7, 8):
        space = _fixed_space((6, 6, 2), [FlattenOp(), DenseOp(units),
                                         DenseOp(4)])
        plan = cache.acquire(space.build_network(
            (), np.random.default_rng(0)), *args)
        cache.release(plan)
    stats = cache.stats()
    assert stats["idle_keys"] == 2 and stats["evictions"] == 1


def test_plan_cache_thread_safety():
    ds, space = _tiny_dense_setup()
    cache = PlanCache()
    args = (16, [ds.x_train.dtype], ds.y_train.dtype,
            ds.y_train.shape[1:], "categorical_crossentropy")
    idx = np.arange(16)
    errors = []

    def worker(seed):
        try:
            for _ in range(5):
                model = space.build_network(
                    (), np.random.default_rng(seed))
                plan = cache.acquire(model, *args)
                lval = plan.run_step(ds.x_train, ds.y_train, idx)
                assert np.isfinite(lval)
                cache.release(plan)
        except Exception as exc:          # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    stats = cache.stats()
    assert stats["hits"] + stats["misses"] == 20


def test_plan_cache_lock_is_in_the_declared_hierarchy():
    from repro.analysis.lockcheck import LOCK_HIERARCHY
    assert "PlanCache._lock" in LOCK_HIERARCHY


# ---------------------------------------------------------------------------
# zero-allocation steady state
# ---------------------------------------------------------------------------


def steady_state_allocs(step, *, steps: int = 5) -> dict:
    """Net retained tracemalloc allocations per warm ``step()`` call.

    One traced call warms every lazy path, then ``steps`` calls run
    between two snapshots.  tracemalloc's own snapshot bookkeeping is
    filtered out, so a genuinely allocation-free step reads 0.  So is
    the gc callback hypothesis registers for the rest of the process
    once a property test has run: it allocates on every collection."""
    gc.collect()
    tracemalloc.start()
    try:
        step()
        gc.collect()
        before = tracemalloc.take_snapshot()
        for _ in range(steps):
            step()
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    own = (tracemalloc.Filter(False, tracemalloc.__file__),
           tracemalloc.Filter(False, "*/hypothesis/*"))
    count = size = 0
    for stat in after.filter_traces(own).compare_to(
            before.filter_traces(own), "filename"):
        count += stat.count_diff
        size += stat.size_diff
    return {"allocs_per_step": max(0, count) // steps,
            "alloc_bytes_per_step": max(0, size) // steps}


def test_run_step_steady_state_is_allocation_free():
    ds, space = _tiny_dense_setup()
    model = space.build_network((), np.random.default_rng(0))
    plan = StepPlan(model, 16, [ds.x_train.dtype], ds.y_train.dtype,
                    ds.y_train.shape[1:], "categorical_crossentropy")
    idx = np.arange(16)
    report = steady_state_allocs(
        lambda: plan.run_step(ds.x_train, ds.y_train, idx))
    assert report["allocs_per_step"] == 0
    assert report["alloc_bytes_per_step"] == 0


# ---------------------------------------------------------------------------
# search integration: chaos, journal, resume
# ---------------------------------------------------------------------------


def test_run_search_rejects_unknown_engine(space, problem):
    with pytest.raises(ValueError, match="engine"):
        run_search(problem, RandomSearch(space, rng=0), 2,
                   scheme="baseline", seed=0, engine="jit")


def test_run_search_plan_trace_matches_eager(space, problem):
    eager = run_search(problem, RandomSearch(space, rng=4), 6,
                       scheme="baseline", seed=4)
    plan = run_search(problem, RandomSearch(space, rng=4), 6,
                      scheme="baseline", seed=4, engine="plan")
    assert [(r.candidate_id, r.arch_seq, r.score) for r in eager] == \
        [(r.candidate_id, r.arch_seq, r.score) for r in plan]
    assert plan.engine_stats["engine"] == "plan"
    assert eager.engine_stats is None
    # the PlanCache is process-wide and warm for a second identical
    # run, yet each trace counts only its own run's lookups
    again = run_search(problem, RandomSearch(space, rng=4), 6,
                       scheme="baseline", seed=4, engine="plan")
    lookups = [t.engine_stats["hits"] + t.engine_stats["misses"]
               for t in (plan, again)]
    assert lookups[0] == lookups[1] > 0


def test_run_search_plan_under_chaos_matches_eager(space, problem):
    def searched(engine):
        ev = ChaosEvaluator(SerialEvaluator(), crash_prob=0.4, seed=3)
        return run_search(problem, RandomSearch(space, rng=7), 8,
                          scheme="baseline", seed=7, evaluator=ev,
                          engine=engine)
    eager = searched("eager")
    plan = searched("plan")
    assert any(not r.ok for r in eager)      # chaos actually fired
    assert [(r.candidate_id, r.arch_seq, r.score, r.ok, r.error)
            for r in eager] == \
        [(r.candidate_id, r.arch_seq, r.score, r.ok, r.error)
         for r in plan]


def test_plan_engine_resumes_eager_journal_bit_identically(
        space, problem, tmp_path):
    # an eager run's journal must be replayable — and *completable* — by
    # the plan engine with no observable difference
    import shutil

    def strategy():
        from repro.nas import RegularizedEvolution
        return RegularizedEvolution(space, rng=5, population_size=4,
                                    sample_size=2)

    full = run_search(problem, strategy(), 8, scheme="baseline", seed=5,
                      journal=tmp_path / "full.jsonl")
    killed = tmp_path / "run.jsonl"
    run_search(problem, strategy(), 5, scheme="baseline", seed=5,
               journal=killed)
    # resume the same journal once per engine (resume appends, so each
    # engine gets its own copy)
    journal_e = tmp_path / "resume_eager.jsonl"
    journal_p = tmp_path / "resume_plan.jsonl"
    shutil.copy(killed, journal_e)
    shutil.copy(killed, journal_p)
    resumed_e = run_search(problem, strategy(), 8, scheme="baseline",
                           seed=5, resume=journal_e)
    resumed_p = run_search(problem, strategy(), 8, scheme="baseline",
                           seed=5, resume=journal_p, engine="plan")
    assert resumed_p.fault_stats["resumed_records"] == 5
    # the replayed prefix is bit-identical to the uninterrupted run, and
    # the plan-engine continuation is bit-identical to the eager one
    assert [(r.candidate_id, r.arch_seq, r.score) for r in full][:5] == \
        [(r.candidate_id, r.arch_seq, r.score) for r in resumed_p][:5]
    assert [(r.candidate_id, r.arch_seq, r.score, r.ok) for r in resumed_e] \
        == [(r.candidate_id, r.arch_seq, r.score, r.ok) for r in resumed_p]


def test_trace_engine_stats_roundtrip(space, problem, tmp_path):
    trace = run_search(problem, RandomSearch(space, rng=1), 3,
                       scheme="baseline", seed=1, engine="plan")
    path = tmp_path / "trace.jsonl"
    trace.save_jsonl(path)
    from repro.cluster.trace import Trace
    loaded = Trace.load_jsonl(path)
    assert loaded.engine_stats == trace.engine_stats
    assert loaded.engine_stats["engine"] == "plan"
