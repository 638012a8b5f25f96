"""Supernet weight entanglement: gradient-correct views, selective
inheritance, failure containment, and the zero-copy scheduler path.

The load-bearing property is that a candidate bound to the entangled
store trains *through* its views — in-place optimizer steps write
straight into shared superweight storage.  The finite-difference tests
pin that analytically; the e2e tests pin the scheduler contract
(``copied_bytes == 0``, failed candidates never corrupt the store).
"""

import numpy as np
import pytest

from repro.apps.mnist import build_space
from repro.apps.mnist import problem as mnist_problem
from repro.checkpoint import CheckpointStore
from repro.cluster import run_search
from repro.cluster.evaluator import SerialEvaluator
from repro.cluster.resilience import ChaosEvaluator, RetryPolicy
from repro.nas.estimation import FAILURE_SCORE, estimate_candidate
from repro.nas.strategies.random_search import RandomSearch
from repro.tensor import Network
from repro.tensor.layers import Dense
from repro.tensor.losses import get_loss
from repro.tensor.training import fit
from repro.transfer import (
    SliceDescriptor,
    SuperNet,
    SupernetTransferBackend,
    shape_sequence,
)


def dense_net(units, n_in=6, n_out=3, rng=0):
    net = Network((n_in,), name=f"net{units}")
    net.add(Dense("d0", units, activation="relu"))
    net.add(Dense("head", n_out))
    return net.build(rng=rng)


def store_finite(supernet):
    return all(np.isfinite(arr).all() for _, arr in supernet.items())


# ----------------------------------------------------------------------
# view semantics: aliasing, gradients, in-place training
# ----------------------------------------------------------------------
def test_bound_params_alias_store_storage():
    sn = SuperNet(build_space())
    model = dense_net(4)
    sn.bind(model)
    base = dict(sn.items())
    for layer in model.parameterized_layers():
        for pname, arr in layer.params.items():
            assert np.shares_memory(arr, base[f"{layer.name}.{pname}"])


def test_two_candidates_entangle_leading_corner():
    sn = SuperNet(build_space())
    big = dense_net(8, rng=1)
    sn.bind(big)
    small = dense_net(4, rng=2)
    sn.bind(small)
    base = dict(sn.items())["d0.kernel"]
    assert base.shape == (6, 8)
    small_kernel = small._by_name["d0"].params["kernel"]
    assert small_kernel.shape == (6, 4)
    assert np.shares_memory(small_kernel, base)
    # writing through the small view must land in the big store's corner
    before = base.copy()
    small_kernel += 1.0
    assert np.allclose(base[:, :4], before[:, :4] + 1.0)
    assert np.array_equal(base[:, 4:], before[:, 4:])


def test_finite_difference_gradients_through_views():
    """d(loss)/d(superweight) computed by backprop through the bound
    views matches central finite differences taken on the *store*."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 6)).astype(np.float32)
    y = rng.normal(size=(5, 3)).astype(np.float32)
    loss_fn = get_loss("mse")

    sn = SuperNet(build_space())
    sn.bind(dense_net(8, rng=1))          # store is wider than the model
    model = dense_net(4, rng=2)
    sn.bind(model)
    base = dict(sn.items())["d0.kernel"]  # (6, 8); model views (6, 4)

    def loss_value():
        val, _ = loss_fn(model.forward(x), y)
        return float(val)

    _, grad = loss_fn(model.forward(x, training=True), y)
    model.backward(grad)
    analytic = model._by_name["d0"].grads["kernel"]

    eps = 1e-3
    for i, j in [(0, 0), (2, 1), (5, 3)]:    # inside the bound corner
        keep = float(base[i, j])
        base[i, j] = keep + eps
        up = loss_value()
        base[i, j] = keep - eps
        down = loss_value()
        base[i, j] = keep
        numeric = (up - down) / (2 * eps)
        assert numeric == pytest.approx(float(analytic[i, j]),
                                        rel=5e-2, abs=1e-4)
    for i, j in [(0, 5), (4, 7)]:            # outside: no influence
        keep = float(base[i, j])
        base[i, j] = keep + 10 * eps
        up = loss_value()
        base[i, j] = keep
        assert up == pytest.approx(loss_value(), abs=1e-9)


def test_inplace_training_writes_through_to_store():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(16, 6)).astype(np.float32)
    y = np.eye(3, dtype=np.float32)[rng.integers(0, 3, size=16)]
    sn = SuperNet(build_space())
    model = dense_net(4, rng=4)
    sn.bind(model)
    before = dict(sn.items())["d0.kernel"].copy()
    fit(model, x, y, epochs=2, batch_size=8, loss="mse", metric="r2",
        optimizer="sgd", learning_rate=0.05, rng=5)
    layer = model._by_name["d0"]
    base = dict(sn.items())["d0.kernel"]
    assert np.shares_memory(layer.params["kernel"], base)
    assert not np.allclose(base, before)
    assert np.array_equal(layer.params["kernel"],
                          base[tuple(slice(0, s)
                                     for s in layer.params["kernel"].shape)])


def test_two_candidates_backprop_into_same_storage():
    """Satellite 3: training candidate B moves the storage candidate A's
    views read — the entanglement is live, not a snapshot."""
    rng = np.random.default_rng(6)
    x = rng.normal(size=(16, 6)).astype(np.float32)
    y = np.eye(3, dtype=np.float32)[rng.integers(0, 3, size=16)]
    sn = SuperNet(build_space())
    a = dense_net(4, rng=7)
    sn.bind(a)
    b = dense_net(4, rng=8)
    sn.bind(b)
    a_kernel_before = a._by_name["d0"].params["kernel"].copy()
    fit(b, x, y, epochs=1, batch_size=8, loss="mse", metric="r2",
        optimizer="sgd", learning_rate=0.05, rng=9)
    assert not np.allclose(a._by_name["d0"].params["kernel"],
                           a_kernel_before)
    assert np.array_equal(a._by_name["d0"].params["kernel"],
                          b._by_name["d0"].params["kernel"])


# ----------------------------------------------------------------------
# store management: growth, inheritance, scrub
# ----------------------------------------------------------------------
def test_grow_preserves_trained_corner():
    sn = SuperNet(build_space())
    small = dense_net(4, rng=1)
    sn.bind(small)
    small._by_name["d0"].params["kernel"][...] = 7.0
    trained = dict(sn.items())["d0.kernel"].copy()
    wide_layer = dense_net(8, rng=2)._by_name["d0"]
    grown = sn._ensure("d0.kernel", wide_layer, "kernel", (6, 8))
    assert grown.shape == (6, 8)
    assert np.array_equal(grown[:, :4], trained)   # old corner intact
    assert sn.grows == 1
    # whether the *next candidate* keeps that corner is then the match's
    # call: a width change breaks the layer signature, so a cold bind
    # re-initialises it — the same selective semantics as copy-transfer


def test_selective_inheritance_matches_transfer_semantics():
    sn = SuperNet(build_space())
    provider = dense_net(4, rng=1)
    sn.bind(provider)
    provider._by_name["d0"].params["kernel"][...] = 3.0
    provider_seq = shape_sequence(provider.get_weights())

    receiver = dense_net(4, rng=2)
    stats = sn.bind(receiver, provider_seq=provider_seq)
    # identical shape sequence -> full LCS match -> everything inherited
    assert stats.transferred
    assert stats.coverage == pytest.approx(1.0)
    assert stats.copied_bytes == 0
    assert stats.resliced_params == 4     # 2 layers x (kernel, bias)
    assert np.all(receiver._by_name["d0"].params["kernel"] == 3.0)

    # a cold bind re-initialises in place: the trained signal is gone
    cold = dense_net(4, rng=4)
    stats = sn.bind(cold)
    assert not stats.transferred
    assert not np.all(cold._by_name["d0"].params["kernel"] == 3.0)


def test_rank_change_rejected():
    sn = SuperNet(build_space())
    sn.bind(dense_net(4))
    bad = Network((6,))
    bad.add(Dense("head", 3))             # name collides, same rank — fine
    bad.build(rng=0)
    sn.bind(bad)
    with pytest.raises(ValueError, match="rank"):
        sn._ensure("head.kernel", bad._by_name["head"], "kernel", (2, 3, 4))


def test_scrub_restores_finite_store():
    sn = SuperNet(build_space())
    model = dense_net(4)
    sn.bind(model)
    model._by_name["d0"].params["kernel"][...] = np.nan
    assert not store_finite(sn)
    scrubbed = sn.scrub(model)
    assert scrubbed > 0
    assert store_finite(sn)
    assert sn.scrubs == 1


def test_estimation_failure_scrubs_store(monkeypatch):
    problem = mnist_problem(seed=0)
    backend = SupernetTransferBackend(SuperNet(problem.space, seed=0))
    arch = problem.space.sample(np.random.default_rng(0))

    import repro.nas.estimation as estimation

    def exploding_fit(model, *args, **kwargs):
        for layer in model.parameterized_layers():
            for arr in layer.params.values():
                arr[...] = np.nan       # garbage written through the views
        raise FloatingPointError("loss exploded")

    monkeypatch.setattr(estimation, "fit", exploding_fit)
    result = estimate_candidate(problem, arch, seed=0, supernet=backend)
    assert not result.ok
    assert result.score == FAILURE_SCORE
    assert store_finite(backend.supernet)


# ----------------------------------------------------------------------
# backend + scheduler contract
# ----------------------------------------------------------------------
def test_slice_descriptor_is_tiny_and_frozen():
    backend = SupernetTransferBackend(build_space(), matcher="lp")
    desc = backend.describe(3, [1, 2, 3])
    assert desc == SliceDescriptor(3, (1, 2, 3), "lp")
    with pytest.raises(AttributeError):
        desc.provider_id = 9


def test_run_search_supernet_end_to_end(tmp_path):
    problem = mnist_problem(seed=0)
    trace = run_search(problem, RandomSearch(problem.space, rng=3), 8,
                       scheme="lcs", transfer_backend="supernet",
                       provider_policy="nearest", seed=5)
    assert len(trace) == 8
    assert all(r.ok for r in trace.records)
    assert trace.transfer_stats["backend"] == "supernet"
    assert trace.transfer_stats["copied_bytes"] == 0
    assert trace.transfer_stats["resliced_params"] > 0
    assert any(r.transferred for r in trace.records)
    assert trace.total_io_blocked == 0.0          # nothing touches disk
    # the checkpoint backend sees the same proposals (random search is
    # tell-independent) and pays for the copies the supernet avoids
    ckpt = run_search(problem, RandomSearch(problem.space, rng=3), 8,
                      scheme="lcs", store=CheckpointStore(tmp_path),
                      provider_policy="nearest", seed=5)
    assert [r.arch_seq for r in ckpt] == [r.arch_seq for r in trace]
    assert ckpt.transfer_stats["copied_bytes"] > 0


def test_run_search_supernet_accepts_store_none_and_shared_supernet():
    problem = mnist_problem(seed=0)
    sn = SuperNet(problem.space, seed=1)
    t1 = run_search(problem, RandomSearch(problem.space, rng=1), 3,
                    scheme="lcs", transfer_backend=sn, seed=1)
    binds_after_first = sn.binds
    t2 = run_search(problem, RandomSearch(problem.space, rng=2), 3,
                    scheme="lcs", transfer_backend=sn, seed=2)
    assert t1.transfer_stats["backend"] == "supernet"
    assert sn.binds > binds_after_first   # second run reused the store
    assert len(t2) == 3


def test_run_search_supernet_rejects_baseline_and_unknown_backend():
    problem = mnist_problem(seed=0)
    with pytest.raises(ValueError, match="baseline"):
        run_search(problem, RandomSearch(problem.space, rng=0), 2,
                   scheme="baseline", transfer_backend="supernet")
    with pytest.raises(ValueError, match="transfer_backend"):
        run_search(problem, RandomSearch(problem.space, rng=0), 2,
                   scheme="lcs", transfer_backend="warp-drive")


def test_chaos_crashes_never_corrupt_shared_store():
    """Satellite 3/5: a crash-only chaos run with retries completes every
    candidate, leaves the store finite, and reproduces the clean run's
    scores bit-identically (crashes raise before training starts, so the
    store never sees a half-trained candidate)."""
    problem = mnist_problem(seed=0)

    def run(chaos: bool):
        evaluator = SerialEvaluator()
        if chaos:
            evaluator = ChaosEvaluator(evaluator, crash_prob=0.3, seed=11)
        backend = SupernetTransferBackend(SuperNet(problem.space, seed=7))
        return backend, run_search(
            problem, RandomSearch(problem.space, rng=3), 8,
            scheme="lcs", transfer_backend=backend,
            provider_policy="nearest", seed=5, evaluator=evaluator,
            retry=RetryPolicy(max_attempts=6, base_delay=0.0, jitter=0.0))

    clean_backend, clean = run(chaos=False)
    backend, chaotic = run(chaos=True)
    assert chaotic.fault_stats["chaos"]["injected"]["crash"] > 0
    assert all(r.ok for r in chaotic.records)
    assert store_finite(backend.supernet)
    clean_store = dict(clean_backend.supernet.items())
    assert all(np.array_equal(arr, clean_store[name])
               for name, arr in backend.supernet.items())
    assert [r.score for r in chaotic.records] == \
        [r.score for r in clean.records]


# ----------------------------------------------------------------------
# Network.bind_weights validation
# ----------------------------------------------------------------------
def test_bind_weights_validates_shape_dtype_writability():
    model = dense_net(4)
    kernel = model._by_name["d0"].params["kernel"]
    with pytest.raises(KeyError):
        model.bind_weights({"nope.kernel": kernel})
    with pytest.raises(TypeError):
        model.bind_weights({"d0.kernel": [[1.0]]})
    with pytest.raises(ValueError, match="shape"):
        model.bind_weights({"d0.kernel": np.zeros((2, 2),
                                                  dtype=np.float32)})
    with pytest.raises(ValueError, match="dtype"):
        model.bind_weights(
            {"d0.kernel": kernel.astype(np.float64)})
    frozen = kernel.copy()
    frozen.flags.writeable = False
    with pytest.raises(ValueError, match="writable"):
        model.bind_weights({"d0.kernel": frozen})
    replacement = kernel.copy() + 1.0
    model.bind_weights({"d0.kernel": replacement})
    assert model._by_name["d0"].params["kernel"] is replacement
