"""The training step every fit runs, after the compiled plan engine.

The compiled ``StepPlan`` engine is retired (ROADMAP.md item 1): every
fit trains eagerly.  Its contract was bit-identicality with the eager
step, so what it pinned down now pins down the eager step itself:

* gradients: finite-difference checks in *training* mode (batch
  statistics for BatchNorm), through every layer kind, multi-input
  concatenation and gradient fan-in;
* dead-gradient elimination in the eager backward;
* reproducibility: a fit, an estimate and a search are pure functions
  of candidate and seed, whatever ran before them in the process;
* the two names kept until the benchmark stops reading them:
  ``SessionSpec.engine`` (``"plan"`` decides what ``"eager"`` does) and
  ``get_plan_cache()`` (counts nothing).

Every equivalence assertion uses exact comparison (``np.array_equal`` /
``==``), never ``allclose``.
"""

import json
import shutil

import numpy as np
import pytest

from repro.apps import get_app, make_image_dataset
from repro.cluster import ChaosEvaluator, SerialEvaluator, Trace, run_search
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
    RegularizedEvolution,
    SearchSpace,
)
from repro.nas.estimation import estimate_candidate
from repro.service import SearchService, SessionSpec
from repro.tensor import (
    Concatenate,
    Conv2D,
    Dense,
    fit,
    get_loss,
    get_plan_cache,
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

#: what the retired plan cache reports, always
NO_PLANS = {"hits": 0, "misses": 0, "traces": 0}


def _fit_one(prob, seq, rng=0, epochs=2):
    ds = prob.dataset
    model = prob.build_model(seq, rng=rng)
    hist = fit(model, ds.x_train, ds.y_train, x_val=ds.x_val,
               y_val=ds.y_val, epochs=epochs, batch_size=prob.batch_size,
               loss=prob.loss, metric=prob.objective,
               learning_rate=prob.learning_rate, rng=0)
    return model, hist


def _assert_same_weights(a, b):
    wa, wb = a.get_weights(), b.get_weights()
    assert wa.keys() == wb.keys()
    for key in wa:
        assert np.array_equal(wa[key], wb[key]), key


# ---------------------------------------------------------------------------
# fit reproducibility on every app
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("app", sorted(APP_SEQS))
def test_fit_plan_matches_eager_bit_identically(app):
    # the plan engine matched eager bit for bit; what that contract
    # leaves is a fit that depends on candidate and seed alone, even
    # with another network of the app trained in between
    prob = get_app(app).problem(seed=0)
    seq = prob.space.validate_seq(APP_SEQS[app])
    ds = prob.dataset
    model_a, hist_a = _fit_one(prob, seq)
    _fit_one(prob, prob.space.sample(np.random.default_rng(1)), rng=1,
             epochs=1)
    model_b, hist_b = _fit_one(prob, seq)
    assert hist_b.loss == hist_a.loss
    assert hist_b.val_score == hist_a.val_score
    _assert_same_weights(model_a, model_b)
    assert evaluate(model_b, ds.x_val, ds.y_val, prob.objective) == \
        evaluate(model_a, ds.x_val, ds.y_val, prob.objective)
    assert get_plan_cache().stats() == NO_PLANS


def test_estimate_candidate_plan_matches_eager():
    prob = get_app("nt3").problem(seed=0)
    seq = prob.space.validate_seq(APP_SEQS["nt3"])
    first = estimate_candidate(prob, seq, seed=3)
    estimate_candidate(prob, seq, seed=4)
    again = estimate_candidate(prob, seq, seed=3)
    assert first.ok and again.ok
    assert again.score == first.score
    assert get_plan_cache().stats() == NO_PLANS


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
# finite-difference gradient checks of the training step
# ---------------------------------------------------------------------------

EPS = 1e-3
RTOL = 5e-2


def _fixed_space(input_shape, ops):
    space = SearchSpace("plan-gradcheck", input_shape)
    for i, op in enumerate(ops):
        space.add_fixed(op, name=f"n{i}")
    return space


def _check_plan_gradients(space, loss="mse"):
    """FD-check the training step's gradients against its *own* loss.

    The step runs the forward pass in *training* mode, so BatchNorm
    normalises with batch statistics; its loss is still a pure function
    of the parameters, so central differences through repeated forward
    passes are exact.  ``tests/test_tensor_autodiff.py`` checks the
    inference-mode forward instead.
    """
    rng = np.random.default_rng(0)
    network = space.build_network((), np.random.default_rng(1))
    n = 4
    xs = [rng.normal(size=(n,) + tuple(s)).astype(np.float64)
          for s in network.input_shapes]
    x = xs if len(xs) > 1 else xs[0]
    out_dim = network.layers[-1].output_shape[0]
    if loss == "categorical_crossentropy":
        y = np.eye(out_dim, dtype=np.float64)[rng.integers(0, out_dim, n)]
    else:
        y = rng.normal(size=(n, out_dim))
    loss_fn = get_loss(loss)

    def step():
        lval, grad = loss_fn(network.forward(x, training=True), y)
        return float(lval), grad

    network.backward(step()[1])
    analytic = {(name, pname): layer.grads[pname].copy()
                for name, layer, pname in network.trainable()}

    checked = 0
    for name, layer, pname in network.trainable():
        flat = layer.params[pname].reshape(-1)
        pick = rng.choice(flat.size, size=min(4, flat.size), replace=False)
        for i in pick:
            orig = flat[i]
            flat[i] = orig + EPS
            hi = step()[0]
            flat[i] = orig - EPS
            lo = step()[0]
            flat[i] = orig
            numeric = (hi - lo) / (2 * EPS)
            a = float(analytic[(name, pname)].reshape(-1)[i])
            assert a == pytest.approx(numeric, rel=RTOL, abs=1e-3), (
                f"{name}.{pname}[{i}]: analytic={a} numeric={numeric}")
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("act", ["relu", "tanh", "sigmoid"])
def test_plan_dense_fused_activation_gradients(act):
    _check_plan_gradients(
        _fixed_space((5,), [DenseOp(7, act), DenseOp(3)]))


def test_plan_softmax_crossentropy_gradients():
    _check_plan_gradients(
        _fixed_space((5,), [DenseOp(6, "relu"), DenseOp(3)]),
        loss="categorical_crossentropy")


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
            Conv1DOp(3, kernel_size=3, activation="sigmoid"),
            AvgPool1DOp(), FlattenOp(), DenseOp(3),
        ]))


def test_plan_batchnorm_first_layer_gradients():
    """A first layer's backward computes no input gradient."""
    _check_plan_gradients(
        _fixed_space((5,), [BatchNormOp(), DenseOp(3)]))


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
# batches, losses and the retired engine's names
# ---------------------------------------------------------------------------


def _tiny_dense_setup(n_train=32, classes=4):
    ds = make_image_dataset(n_train=n_train, n_val=16, height=6, width=6,
                            channels=2, classes=classes, seed=0)
    space = _fixed_space((6, 6, 2), [FlattenOp(), DenseOp(8, "relu"),
                                     DenseOp(classes)])
    return ds, space


def _tiny_fit(ds, space, loss="categorical_crossentropy", batch_size=16,
              network=None):
    model = network or space.build_network((), np.random.default_rng(0))
    hist = fit(model, ds.x_train, ds.y_train, x_val=ds.x_val,
               y_val=ds.y_val, epochs=2, batch_size=batch_size,
               loss=loss, metric=ds.metric, rng=0)
    return model, hist


def test_ragged_tail_batch_falls_back_per_batch():
    # n_train=40, batch=16 -> two full batches and a tail of 8, each
    # trained by the same step
    ds, space = _tiny_dense_setup(n_train=40)
    model = space.build_network((), np.random.default_rng(0))
    sizes, forward = [], model.forward

    def spy(x, training=False):
        if training:
            sizes.append(x.shape[0])
        return forward(x, training=training)
    model.forward = spy
    _, hist = _tiny_fit(ds, space, network=model)
    assert sizes == [16, 16, 8] * 2
    assert len(hist.loss) == 2 and all(np.isfinite(hist.loss))
    # the tail batch trains: dropping it changes the weights
    short = make_image_dataset(n_train=32, n_val=16, height=6, width=6,
                               channels=2, classes=4, seed=0)
    model_s, _ = _tiny_fit(short, space)
    assert not all(np.array_equal(a, b) for a, b in zip(
        model.get_weights().values(), model_s.get_weights().values()))


def test_unsupported_engine_rejected(space, problem):
    with pytest.raises(ValueError, match="turbo"):
        SessionSpec(problem=problem, strategy=RandomSearch(space, rng=0),
                    num_candidates=2, engine="turbo")


def test_clear_forgets_sightings():
    # the retired cache is one process-wide object that never counts
    cache = get_plan_cache()
    assert get_plan_cache() is cache
    cache.clear()
    assert cache.stats() == NO_PLANS
    _tiny_fit(*_tiny_dense_setup())
    assert cache.stats() == NO_PLANS


# ---------------------------------------------------------------------------
# search integration: chaos, journal, resume
# ---------------------------------------------------------------------------


def test_run_search_rejects_unknown_engine(space, problem):
    # the parameter is gone; a caller still passing one fails loudly
    with pytest.raises(TypeError, match="engine"):
        run_search(problem, RandomSearch(space, rng=0), 2,
                   scheme="baseline", seed=0, engine="jit")


def test_run_search_plan_trace_matches_eager(space, problem):
    # runs that once sighted, then planned, every network are now plain
    # repeats: each decides what the first did
    def decided(trace):
        return [(r.candidate_id, r.arch_seq, r.score) for r in trace]

    first = run_search(problem, RandomSearch(space, rng=4), 6,
                       scheme="baseline", seed=4)
    for _ in range(2):
        again = run_search(problem, RandomSearch(space, rng=4), 6,
                           scheme="baseline", seed=4)
        assert decided(again) == decided(first)
        assert not hasattr(again, "engine_stats")
    assert get_plan_cache().stats() == NO_PLANS


def test_run_search_plan_under_chaos_matches_eager(space, problem):
    def searched():
        ev = ChaosEvaluator(SerialEvaluator(), crash_prob=0.4, seed=3)
        return run_search(problem, RandomSearch(space, rng=7), 8,
                          scheme="baseline", seed=7, evaluator=ev)
    first = searched()
    again = searched()
    assert any(not r.ok for r in first)      # chaos actually fired
    assert [(r.candidate_id, r.arch_seq, r.score, r.ok, r.error)
            for r in first] == \
        [(r.candidate_id, r.arch_seq, r.score, r.ok, r.error)
         for r in again]


def test_plan_engine_resumes_eager_journal_bit_identically(
        space, problem, tmp_path):
    # an eager run's journal is replayed — and completed — by a
    # ``SessionSpec(engine="plan")`` session with no observable
    # difference from a plain eager resume
    def strategy():
        return RegularizedEvolution(space, rng=5, population_size=4,
                                    sample_size=2)

    full = run_search(problem, strategy(), 8, scheme="baseline", seed=5,
                      journal=tmp_path / "full.jsonl")
    killed = tmp_path / "run.jsonl"
    run_search(problem, strategy(), 5, scheme="baseline", seed=5,
               journal=killed)
    # resume appends, so each resume gets its own copy
    journal_e = tmp_path / "resume_eager.jsonl"
    journal_p = tmp_path / "resume_plan.jsonl"
    shutil.copy(killed, journal_e)
    shutil.copy(killed, journal_p)
    resumed_e = run_search(problem, strategy(), 8, scheme="baseline",
                           seed=5, resume=journal_e)
    svc = SearchService(evaluator=SerialEvaluator())
    handle = svc.submit(
        SessionSpec(problem=problem, strategy=strategy(), num_candidates=8,
                    scheme="baseline", seed=5, engine="plan"),
        resume=journal_p)
    svc.drive()
    resumed_p = handle.result()
    assert resumed_e.fault_stats["resumed_records"] == 5
    assert resumed_p.fault_stats["resumed_records"] == 5
    # the replayed prefix is bit-identical to the uninterrupted run, and
    # the "plan" continuation is bit-identical to the eager one
    assert [(r.candidate_id, r.arch_seq, r.score) for r in full][:5] == \
        [(r.candidate_id, r.arch_seq, r.score) for r in resumed_p][:5]
    assert [(r.candidate_id, r.arch_seq, r.score, r.ok) for r in resumed_e] \
        == [(r.candidate_id, r.arch_seq, r.score, r.ok) for r in resumed_p]
    assert get_plan_cache().stats() == NO_PLANS


def test_trace_engine_stats_roundtrip(space, problem, tmp_path):
    # a trace saved while the engine existed carries an ``engine_stats``
    # header key; it still loads, and saving it again drops the key
    trace = run_search(problem, RandomSearch(space, rng=1), 3,
                       scheme="baseline", seed=1)
    path = trace.save_jsonl(tmp_path / "old.jsonl")
    header, *lines = path.read_text().splitlines()
    header = json.loads(header)
    header["engine_stats"] = {"engine": "plan", "hits": 3, "misses": 1,
                              "traces": 1}
    path.write_text("\n".join([json.dumps(header), *lines]) + "\n")
    loaded = Trace.load_jsonl(path)
    assert list(loaded) == list(trace)
    assert not hasattr(loaded, "engine_stats")
    again = loaded.save_jsonl(tmp_path / "new.jsonl")
    assert "engine_stats" not in json.loads(
        again.read_text().splitlines()[0])
    assert list(Trace.load_jsonl(again)) == list(trace)
