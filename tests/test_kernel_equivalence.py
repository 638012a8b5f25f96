"""Optimized kernels vs the frozen pre-optimization reference kernels.

``reference_ops.py`` (next to this file) is a verbatim snapshot of the
hot-path implementations before the perf rework; these tests pin the
rework to bit-for-bit-ish (allclose) agreement on randomized shapes,
and pin the snapshot itself by its SHA-256 so it never drifts.

Pooling note: the legacy 2-D max-pool mask tie-broke *non-uniquely*
(its double-cumsum could keep several cells of a tied window), while the
argmax path keeps exactly one.  Continuous random inputs make ties a
measure-zero event, so equivalence is checked on such data; the tied
case is exercised separately to document the new (correct) behaviour.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest
import reference_ops as ref
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.tensor.autodiff_ops as ops
from repro.tensor import BatchNorm, Dense, Network
from repro.tensor.optimizers import Adam

#: SHA-256 of the frozen kernels: update it only with a re-validated
#: perf baseline
REFERENCE_OPS_SHA256 = (
    "b63a1ee45db825ce591e6306a441930ab8ead5b535e0324ba3c41f82c8dbab87"
)


def _rng(seed=0):
    return np.random.default_rng(seed)


def test_reference_kernels_are_frozen():
    source = Path(ref.__file__).read_bytes()
    assert hashlib.sha256(source).hexdigest() == REFERENCE_OPS_SHA256


# ---------------------------------------------------------------------------
# convolutions
# ---------------------------------------------------------------------------


# the live kernels always pad "same"; the ids name the reference's mode
@pytest.mark.parametrize("k", [1, 3, 5], ids=lambda k: f"{k}-same")
def test_conv2d_matches_reference(k):
    rng = _rng(k)
    x = rng.normal(size=(4, 9, 8, 3))
    kern = rng.normal(size=(k, k, 3, 5))
    bias = rng.normal(size=5)

    out_new, cache_new = ops.conv2d_forward(x, kern, bias)
    out_ref, cache_ref = ref.conv2d_forward(x, kern, bias, padding="same")
    np.testing.assert_allclose(out_new, out_ref, rtol=1e-10, atol=1e-10)

    gout = rng.normal(size=out_new.shape)
    gx_new, gk_new, gb_new = ops.conv2d_backward(gout, cache_new)
    gx_ref, gk_ref, gb_ref = ref.conv2d_backward(gout, cache_ref)
    np.testing.assert_allclose(gx_new, gx_ref, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(gk_new, gk_ref, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(gb_new, gb_ref, rtol=1e-10, atol=1e-10)


@st.composite
def _conv2d_case(draw):
    n, h, w = (draw(st.integers(1, 6)), draw(st.integers(1, 10)),
               draw(st.integers(1, 10)))
    cin, cout = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    k = draw(st.sampled_from([1, 3, 5]))
    return n, h, w, cin, cout, k, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None)
@given(case=_conv2d_case())
def test_conv2d_bit_identical_to_reference_on_generated_shapes(case):
    """Exact, not allclose: the row-wise scatter and the zero-buffer pad
    reorder no float32 addition relative to the reference's per-tap
    loop, and ``need_gx=False`` leaves the parameter gradients as is."""
    n, h, w, cin, cout, k, seed = case
    rng = _rng(seed)
    x = rng.standard_normal((n, h, w, cin), dtype=np.float32)
    kern = rng.standard_normal((k, k, cin, cout), dtype=np.float32)
    bias = rng.standard_normal(cout, dtype=np.float32)

    out, cache = ops.conv2d_forward(x, kern, bias)
    out_ref, cache_ref = ref.conv2d_forward(x, kern, bias, padding="same")
    assert np.array_equal(out, out_ref)

    gout = rng.standard_normal(out.shape, dtype=np.float32)
    want = ref.conv2d_backward(gout, cache_ref)
    for got, exp in zip(ops.conv2d_backward(gout, cache), want):
        assert got.dtype == exp.dtype == np.float32
        assert np.array_equal(got, exp)
    gx, gk, gb = ops.conv2d_backward(gout, cache, need_gx=False)
    assert gx is None
    assert np.array_equal(gk, want[1])
    assert np.array_equal(gb, want[2])


def test_conv2d_cache_holds_no_im2col_matrix():
    """The memory claim itself: forward keeps the padded input, not the
    k*k-times-larger patch matrix."""
    rng = _rng(0)
    x = rng.normal(size=(2, 8, 8, 3)).astype(np.float32)
    kern = rng.normal(size=(3, 3, 3, 4)).astype(np.float32)
    bias = np.zeros(4, dtype=np.float32)
    _, cache_new = ops.conv2d_forward(x, kern, bias)
    _, cache_ref = ref.conv2d_forward(x, kern, bias)
    cached_new = max(a.nbytes for a in cache_new if isinstance(a, np.ndarray))
    cached_ref = max(a.nbytes for a in cache_ref if isinstance(a, np.ndarray))
    assert cached_new * 4 <= cached_ref


@pytest.mark.parametrize("k", [1, 3, 5], ids=lambda k: f"{k}-same")
def test_conv1d_matches_reference(k):
    rng = _rng(k + 10)
    x = rng.normal(size=(4, 17, 3))
    kern = rng.normal(size=(k, 3, 6))
    bias = rng.normal(size=6)

    out_new, cache_new = ops.conv1d_forward(x, kern, bias)
    out_ref, cache_ref = ref.conv1d_forward(x, kern, bias, padding="same")
    np.testing.assert_allclose(out_new, out_ref, rtol=1e-10, atol=1e-10)

    gout = rng.normal(size=out_new.shape)
    for g_new, g_ref in zip(ops.conv1d_backward(gout, cache_new),
                            ref.conv1d_backward(gout, cache_ref)):
        np.testing.assert_allclose(g_new, g_ref, rtol=1e-10, atol=1e-10)


# ---------------------------------------------------------------------------
# max pooling
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3])
def test_maxpool2d_matches_reference(p):
    rng = _rng(p)
    x = rng.normal(size=(3, 6 * p, 4 * p, 5))

    out_new, cache_new = ops.maxpool2d_forward(x, p)
    out_ref, cache_ref = ref.maxpool2d_forward(x, p)
    np.testing.assert_allclose(out_new, out_ref)

    gout = rng.normal(size=out_new.shape)
    gx_new = ops.maxpool2d_backward(gout, cache_new)
    gx_ref = ref.maxpool2d_backward(gout, cache_ref)
    np.testing.assert_allclose(gx_new, gx_ref)


@pytest.mark.parametrize("p", [2, 4])
def test_maxpool1d_matches_reference(p):
    rng = _rng(p + 20)
    x = rng.normal(size=(3, 12 * p, 5))

    out_new, cache_new = ops.maxpool1d_forward(x, p)
    out_ref, cache_ref = ref.maxpool1d_forward(x, p)
    np.testing.assert_allclose(out_new, out_ref)

    gout = rng.normal(size=out_new.shape)
    np.testing.assert_allclose(ops.maxpool1d_backward(gout, cache_new),
                               ref.maxpool1d_backward(gout, cache_ref))


def test_maxpool2d_tied_window_routes_gradient_once():
    """On a fully tied window the legacy mask kept several winners; the
    argmax path keeps exactly one, so the gradient mass is conserved."""
    x = np.ones((1, 2, 2, 1), dtype=np.float32)
    out, cache = ops.maxpool2d_forward(x, 2)
    assert out.shape == (1, 1, 1, 1)
    gx = ops.maxpool2d_backward(np.full((1, 1, 1, 1), 4.0, np.float32), cache)
    assert gx.sum() == pytest.approx(4.0)
    assert (gx != 0).sum() == 1


# ---------------------------------------------------------------------------
# optimizers: in-place updates vs the allocating reference rules
# ---------------------------------------------------------------------------


def _net(input_dim, *layers):
    """A built, initialised chain of ``layers`` over a flat input."""
    net = Network((input_dim,))
    for layer in layers:
        net.add(layer)
    net.build(0).initialize()
    return net


def _trajectory_new(param, grads):
    net = _net(param.shape[0], Dense("d", param.shape[1]))
    net.set_weights({"d.kernel": param})
    opt = Adam(net, learning_rate=1e-3)
    layer = net.layers[0]
    for g in grads:
        layer.grads["kernel"][...] = g
        opt.step()
    return layer.params["kernel"]


def _trajectory_ref(update, param, grads, **hp):
    p = param.copy()
    state = {}
    for g in grads:
        p = update(p, g.copy(), state, **hp)
    return p


@pytest.mark.parametrize("steps", [1, 7])
def test_adam_trajectory_matches_reference(steps):
    rng = _rng(1)
    param = rng.normal(size=(6, 4)).astype(np.float32)
    grads = [rng.normal(size=param.shape).astype(np.float32)
             for _ in range(steps)]
    p_new = _trajectory_new(param, grads)
    p_ref = _trajectory_ref(ref.adam_update, param, grads,
                            learning_rate=1e-3)
    np.testing.assert_allclose(p_new, p_ref, rtol=1e-5, atol=1e-7)


# ---------------------------------------------------------------------------
# flat multi-tensor step: layout independence
# ---------------------------------------------------------------------------

def test_flat_step_is_layout_independent():
    """Stepping one network's flat buffer equals stepping each of its
    layers as a network of its own, bit for bit, and leaves the
    untrained batch-norm statistics (arrays outside the stepped buffer)
    alone."""
    rng = _rng(6)
    joint = _net(5, Dense("a", 3), BatchNorm("bn"), Dense("b", 4))
    lone = [_net(5, Dense("a", 3)), _net(3, BatchNorm("bn")),
            _net(3, Dense("b", 4))]
    start = {k: 10.0 * rng.normal(size=w.shape).astype(np.float32)
             for k, w in joint.get_weights().items()}
    joint.set_weights(start)
    for net in lone:
        net.set_weights(start, strict=False)
    joint_opt = Adam(joint, 1e-3)
    lone_opts = [Adam(net, 1e-3) for net in lone]
    for _ in range(4):
        grads = {}
        for name, layer, pname in joint.trainable():
            grads[name] = layer.grads[pname]
            grads[name][...] = 10.0 * rng.normal(size=grads[name].shape)
        for net in lone:
            for name, layer, pname in net.trainable():
                layer.grads[pname][...] = grads[name]
        joint_opt.step()
        for opt in lone_opts:
            opt.step()
    got = joint.get_weights()
    for net in lone:
        for key, w in net.get_weights().items():
            assert got[key].tobytes() == w.tobytes(), key
    for key in ("bn.moving_mean", "bn.moving_var"):
        assert got[key].tobytes() == start[key].tobytes()
