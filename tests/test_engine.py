"""Compiled StepPlan engine: eager equivalence, gradients, cache, resume.

The engine's contract is *bit*-identicality — not approximate closeness —
so every equivalence assertion here uses exact comparison
(``np.array_equal`` / ``==``), never ``allclose``.

``PlanCache`` admits a network on its second sighting, so a plan test
sights its network first and then asserts that ``traces + hits`` grew:
without that, a plan-vs-eager comparison would quietly compare eager
with eager.
"""

import gc
import sys
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
from repro.tensor import Concatenate, Conv2D, Dense, fit, get_loss
from repro.tensor.engine import (
    _SEEN_PER_PLAN,
    PlanCache,
    PlanUnsupportedError,
    StepPlan,
    get_plan_cache,
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


@pytest.fixture
def cold_plan_cache():
    """The process-wide ``PlanCache``, cleared before and after the test
    so no sighting or idle plan carries over between tests."""
    cache = get_plan_cache()
    cache.clear()
    yield cache
    cache.clear()


def _plan_args(x, y, batch_size, loss) -> tuple:
    """``PlanCache.acquire``'s arguments after the network, as ``fit``
    passes them."""
    xs = x if isinstance(x, (list, tuple)) else (x,)
    return (batch_size, [a.dtype for a in xs], y.dtype, y.shape[1:], loss)


def _sight(cache, model, args):
    """First sighting of ``model``'s plan key: recorded and deferred, so
    the next ``fit(..., engine="plan")`` of that network traces."""
    before = cache.stats()
    with pytest.raises(PlanUnsupportedError, match="first sighting"):
        cache.acquire(model, *args)
    assert cache.stats_since(before)["deferred"] == 1


def _planned(cache, before) -> int:
    """Plan steps checked out since ``before``: traced or pooled."""
    delta = cache.stats_since(before)
    return delta["traces"] + delta["hits"]


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
def test_fit_plan_matches_eager_bit_identically(app, cold_plan_cache):
    prob = get_app(app).problem(seed=0)
    seq = prob.space.validate_seq(APP_SEQS[app])
    ds = prob.dataset
    _sight(cold_plan_cache, prob.build_model(seq, rng=0),
           _plan_args(ds.x_train, ds.y_train, prob.batch_size, prob.loss))
    model_e, hist_e = _fit_one(prob, seq, "eager")
    before = cold_plan_cache.stats()
    model_p, hist_p = _fit_one(prob, seq, "plan")
    assert _planned(cold_plan_cache, before) == 1
    assert hist_p.loss == hist_e.loss
    assert hist_p.val_score == hist_e.val_score
    we, wp = model_e.get_weights(), model_p.get_weights()
    assert we.keys() == wp.keys()
    for key in we:
        assert np.array_equal(we[key], wp[key]), key
    assert evaluate(model_p, ds.x_val, ds.y_val, prob.objective) == \
        evaluate(model_e, ds.x_val, ds.y_val, prob.objective)


def test_estimate_candidate_plan_matches_eager(cold_plan_cache):
    prob = get_app("nt3").problem(seed=0)
    seq = prob.space.validate_seq(APP_SEQS["nt3"])
    ds = prob.dataset
    _sight(cold_plan_cache, prob.build_model(seq, rng=3),
           _plan_args(ds.x_train, ds.y_train, prob.batch_size, prob.loss))
    eager = estimate_candidate(prob, seq, seed=3, engine="eager")
    before = cold_plan_cache.stats()
    plan = estimate_candidate(prob, seq, seed=3, engine="plan")
    assert _planned(cold_plan_cache, before) == 1
    assert plan.ok and eager.ok
    assert plan.score == eager.score


# ---------------------------------------------------------------------------
# eager dead-gradient elimination
# ---------------------------------------------------------------------------


def _backward_every_layer(network, gout):
    """Reference backward: every reached layer runs with ``need_gx=True``
    and routes a gradient to every parent, network inputs included."""
    pending = {network._output: gout}
    for layer in reversed(network.layers):
        g = pending.pop(layer.name, None)
        if g is None:
            continue
        gx = layer.backward(g, need_gx=True)
        gxs = gx if isinstance(layer, Concatenate) else [gx]
        for parent, gp in zip(network._inputs_of[layer.name], gxs):
            pending[parent] = pending[parent] + gp if parent in pending \
                else gp


def _input_fed(network) -> set:
    """Layers whose every path back to a network input crosses no
    parameterised layer: nothing upstream of them trains."""
    fed = set()
    for layer in network.layers:
        if all(p.startswith("input:") or
               (p in fed and not network._by_name[p].params)
               for p in network._inputs_of[layer.name]):
            fed.add(layer.name)
    return fed


@pytest.mark.parametrize("app", sorted(APP_SEQS))
def test_eager_backward_skips_only_dead_gradients(app):
    prob = get_app(app).problem(seed=0)
    model = prob.build_model(prob.space.validate_seq(APP_SEQS[app]), rng=0)
    ds, n = prob.dataset, prob.batch_size
    x = ([a[:n] for a in ds.x_train] if isinstance(ds.x_train, (list, tuple))
         else ds.x_train[:n])
    _, grad = get_loss(prob.loss)(model.forward(x, training=True),
                                  ds.y_train[:n])

    _backward_every_layer(model, grad)
    want = {name: layer.grads[p].copy()
            for name, layer, p in model.trainable()}

    calls = {}
    for layer in model.layers:
        def spy(g, need_gx=True, _orig=layer.backward, _name=layer.name):
            calls[_name] = need_gx
            return _orig(g, need_gx)
        layer.backward = spy
    model.backward(grad)

    for name, layer, p in model.trainable():
        assert np.array_equal(layer.grads[p], want[name]), name
    fed = _input_fed(model)
    assert fed
    for name in fed:
        if model._by_name[name].params:
            assert calls[name] is False, name
        else:
            assert name not in calls, name      # dead: never called
    assert all(calls[name] for name in calls if name not in fed)
    if app in ("cifar10", "mnist"):
        first_conv = next(layer for layer in model.layers
                          if isinstance(layer, Conv2D))
        assert calls[first_conv.name] is False
    if app == "uno":
        towers = [layer.name for layer in model.layers
                  if isinstance(layer, Dense) and
                  model._inputs_of[layer.name][0].startswith("input:")]
        assert len(towers) == 2
        assert all(calls[name] is False for name in towers)


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


def _tiny_plan_args(ds, batch_size=16):
    return _plan_args(ds.x_train, ds.y_train, batch_size,
                      "categorical_crossentropy")


def _tiny_fit(ds, space, engine, loss="categorical_crossentropy",
              batch_size=16):
    model = space.build_network((), np.random.default_rng(0))
    hist = fit(model, ds.x_train, ds.y_train, x_val=ds.x_val,
               y_val=ds.y_val, epochs=2, batch_size=batch_size,
               loss=loss, metric=ds.metric, rng=0, engine=engine)
    return model, hist


def test_ragged_tail_batch_falls_back_per_batch(cold_plan_cache):
    # n_train=40, batch=16 -> two planned batches + one eager tail of 8;
    # the mixed run must still be bit-identical to all-eager
    ds, space = _tiny_dense_setup(n_train=40)
    _sight(cold_plan_cache, space.build_network((), np.random.default_rng(0)),
           _tiny_plan_args(ds))
    model_e, hist_e = _tiny_fit(ds, space, "eager")
    before = cold_plan_cache.stats()
    model_p, hist_p = _tiny_fit(ds, space, "plan")
    assert _planned(cold_plan_cache, before) == 1
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
    args = _tiny_plan_args(ds)
    _sight(cache, model, args)
    plan = cache.acquire(model, *args)
    cache.release(plan)
    # same structure, different init: must reuse the traced instance
    again = cache.acquire(space.build_network((), np.random.default_rng(1)),
                          *args)
    assert again is plan
    stats = cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 2
    assert stats["deferred"] == 1
    assert stats["traces"] == 1 and stats["trace_seconds"] > 0


def test_plan_cache_checked_out_instances_are_distinct():
    ds, space = _tiny_dense_setup()
    cache = PlanCache()
    args = _tiny_plan_args(ds)
    _sight(cache, space.build_network((), np.random.default_rng(0)), args)
    a = cache.acquire(space.build_network((), np.random.default_rng(0)),
                      *args)
    b = cache.acquire(space.build_network((), np.random.default_rng(1)),
                      *args)
    assert a is not b                    # concurrent checkouts never share
    assert cache.stats()["traces"] == 2


def test_plan_cache_lru_eviction():
    ds = make_image_dataset(n_train=32, n_val=16, height=6, width=6,
                            channels=2, classes=4, seed=0)
    cache = PlanCache(max_plans=2)
    args = _tiny_plan_args(ds)
    for units in (6, 7, 8):
        space = _fixed_space((6, 6, 2), [FlattenOp(), DenseOp(units),
                                         DenseOp(4)])
        model = space.build_network((), np.random.default_rng(0))
        _sight(cache, model, args)
        cache.release(cache.acquire(model, *args))
    stats = cache.stats()
    assert stats["traces"] == 3
    assert stats["idle_keys"] == 2 and stats["evictions"] == 1


def test_plan_cache_thread_safety():
    ds, space = _tiny_dense_setup()
    cache = PlanCache()
    args = _tiny_plan_args(ds)
    _sight(cache, space.build_network((), np.random.default_rng(0)), args)
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
    assert stats["hits"] + stats["misses"] == 21
    assert stats["traces"] + stats["hits"] == 20
    assert stats["deferred"] == 1


# ---------------------------------------------------------------------------
# PlanCache admission: a network is planned from its second sighting
# ---------------------------------------------------------------------------


def test_first_sighting_runs_eagerly_then_traces_then_hits(cold_plan_cache):
    ds, space = _tiny_dense_setup()
    model_e, hist_e = _tiny_fit(ds, space, "eager")
    counts = []
    for _ in range(3):
        before = cold_plan_cache.stats()
        model_p, hist_p = _tiny_fit(ds, space, "plan")
        delta = cold_plan_cache.stats_since(before)
        counts.append((delta["deferred"], delta["traces"], delta["hits"],
                       delta["misses"]))
        assert hist_p.loss == hist_e.loss
        we, wp = model_e.get_weights(), model_p.get_weights()
        assert all(np.array_equal(we[k], wp[k]) for k in we)
    # (deferred, traces, hits, misses): eager, traced, pooled
    assert counts == [(1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 0)]


def test_clear_forgets_sightings():
    ds, space = _tiny_dense_setup()
    cache = PlanCache()
    model = space.build_network((), np.random.default_rng(0))
    args = _tiny_plan_args(ds)
    _sight(cache, model, args)
    cache.clear()
    _sight(cache, model, args)
    assert cache.stats()["traces"] == 0


def test_sighting_set_is_bounded_and_evicts_its_oldest_key():
    # the batch size is part of the key: one network, many keys
    ds, space = _tiny_dense_setup()
    cache = PlanCache(max_plans=1)
    model = space.build_network((), np.random.default_rng(0))
    bound = _SEEN_PER_PLAN * cache.max_plans
    for batch in range(1, bound + 2):
        _sight(cache, model, _tiny_plan_args(ds, batch))
    # the full set dropped batch 1, its oldest key, and kept batch 2
    plan = cache.acquire(model, *_tiny_plan_args(ds, batch_size=2))
    assert plan.batch_size == 2
    _sight(cache, model, _tiny_plan_args(ds, 1))
    stats = cache.stats()
    assert stats["deferred"] == bound + 2 and stats["traces"] == 1


def test_racing_first_sightings_defer_exactly_once():
    ds, space = _tiny_dense_setup()
    cache = PlanCache()
    model = space.build_network((), np.random.default_rng(0))
    rounds, nthreads = 8, 4
    barrier = threading.Barrier(nthreads, timeout=30)
    outcomes = []

    def worker():
        for batch in range(1, rounds + 1):
            barrier.wait()
            try:
                plan = cache.acquire(model, *_tiny_plan_args(ds, batch))
            except PlanUnsupportedError:
                outcomes.append((batch, "deferred"))
            else:
                outcomes.append((batch, "planned"))
                cache.release(plan)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(nthreads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for batch in range(1, rounds + 1):
        kinds = sorted(k for b, k in outcomes if b == batch)
        assert kinds == ["deferred"] + ["planned"] * (nthreads - 1), batch
    stats = cache.stats()
    assert stats["hits"] + stats["misses"] == rounds * nthreads
    assert stats["deferred"] == rounds
    assert stats["traces"] + stats["hits"] == rounds * (nthreads - 1)


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


def test_run_search_plan_trace_matches_eager(space, problem,
                                             cold_plan_cache):
    eager = run_search(problem, RandomSearch(space, rng=4), 6,
                       scheme="baseline", seed=4)
    # on a cold cache every network's first fit runs eagerly; the
    # second identical run plans every network the first one sighted
    sighting = run_search(problem, RandomSearch(space, rng=4), 6,
                          scheme="baseline", seed=4, engine="plan")
    plan = run_search(problem, RandomSearch(space, rng=4), 6,
                      scheme="baseline", seed=4, engine="plan")
    for trace in (sighting, plan):
        assert [(r.candidate_id, r.arch_seq, r.score) for r in eager] == \
            [(r.candidate_id, r.arch_seq, r.score) for r in trace]
        assert trace.engine_stats["engine"] == "plan"
    assert eager.engine_stats is None
    assert sighting.engine_stats["deferred"] > 0
    assert plan.engine_stats["deferred"] == 0
    assert plan.engine_stats["traces"] + plan.engine_stats["hits"] > 0
    # the PlanCache is process-wide, yet each trace counts only its own
    # run's lookups
    lookups = [t.engine_stats["hits"] + t.engine_stats["misses"]
               for t in (sighting, plan)]
    assert lookups[0] == lookups[1] > 0


def test_run_search_plan_under_chaos_matches_eager(space, problem,
                                                   cold_plan_cache):
    def searched(engine):
        ev = ChaosEvaluator(SerialEvaluator(), crash_prob=0.4, seed=3)
        return run_search(problem, RandomSearch(space, rng=7), 8,
                          scheme="baseline", seed=7, evaluator=ev,
                          engine=engine)
    eager = searched("eager")
    searched("plan")                         # sights every network
    plan = searched("plan")
    assert plan.engine_stats["traces"] + plan.engine_stats["hits"] > 0
    assert any(not r.ok for r in eager)      # chaos actually fired
    assert [(r.candidate_id, r.arch_seq, r.score, r.ok, r.error)
            for r in eager] == \
        [(r.candidate_id, r.arch_seq, r.score, r.ok, r.error)
         for r in plan]


def test_plan_engine_resumes_eager_journal_bit_identically(
        space, problem, tmp_path, cold_plan_cache):
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
    # sight every network of the run, so the continuation plans
    run_search(problem, strategy(), 8, scheme="baseline", seed=5,
               engine="plan")
    resumed_p = run_search(problem, strategy(), 8, scheme="baseline",
                           seed=5, resume=journal_p, engine="plan")
    assert resumed_p.fault_stats["resumed_records"] == 5
    stats = resumed_p.engine_stats
    assert stats["traces"] + stats["hits"] > 0
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
