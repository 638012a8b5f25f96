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


@pytest.mark.parametrize("padding", ["same", "valid"])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_conv2d_matches_reference(k, padding):
    rng = _rng(k)
    x = rng.normal(size=(4, 9, 8, 3))
    kern = rng.normal(size=(k, k, 3, 5))
    bias = rng.normal(size=5)

    out_new, cache_new = ops.conv2d_forward(x, kern, bias, padding=padding)
    out_ref, cache_ref = ref.conv2d_forward(x, kern, bias, padding=padding)
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
    paddings = ["same", "valid"] if k <= min(h, w) else ["same"]
    return (n, h, w, cin, cout, k, draw(st.sampled_from(paddings)),
            draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=80, deadline=None)
@given(case=_conv2d_case())
def test_conv2d_bit_identical_to_reference_on_generated_shapes(case):
    """Exact, not allclose: the row-wise scatter and the zero-buffer pad
    reorder no float32 addition relative to the reference's per-tap
    loop, and ``need_gx=False`` leaves the parameter gradients as is."""
    n, h, w, cin, cout, k, padding, seed = case
    rng = _rng(seed)
    x = rng.standard_normal((n, h, w, cin), dtype=np.float32)
    kern = rng.standard_normal((k, k, cin, cout), dtype=np.float32)
    bias = rng.standard_normal(cout, dtype=np.float32)

    out, cache = ops.conv2d_forward(x, kern, bias, padding=padding)
    out_ref, cache_ref = ref.conv2d_forward(x, kern, bias, padding=padding)
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


@pytest.mark.parametrize("padding", ["same", "valid"])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_conv1d_matches_reference(k, padding):
    rng = _rng(k + 10)
    x = rng.normal(size=(4, 17, 3))
    kern = rng.normal(size=(k, 3, 6))
    bias = rng.normal(size=6)

    out_new, cache_new = ops.conv1d_forward(x, kern, bias, padding=padding)
    out_ref, cache_ref = ref.conv1d_forward(x, kern, bias, padding=padding)
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


class _Slot:
    def __init__(self, param, grad):
        self.params = {"w": param}
        self.grads = {"w": grad}


class _Net:
    def __init__(self, slots):
        self._slots = slots

    def trainable(self):
        for i, slot in enumerate(self._slots):
            yield f"t{i}", slot, "w"


def _trajectory_new(opt, param, grads):
    slot = _Slot(param.copy(), None)
    net = _Net([slot])
    for g in grads:
        slot.grads["w"] = g.copy()
        opt.step(net)
    return slot.params["w"]


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
    p_new = _trajectory_new(Adam(learning_rate=1e-3), param, grads)
    p_ref = _trajectory_ref(ref.adam_update, param, grads,
                            learning_rate=1e-3)
    np.testing.assert_allclose(p_new, p_ref, rtol=1e-5, atol=1e-7)


# ---------------------------------------------------------------------------
# flat multi-tensor step: layout independence
# ---------------------------------------------------------------------------

def test_flat_step_is_layout_independent():
    """Stepping one 3-tensor network equals stepping three 1-tensor
    networks bit for bit.  The joint network's first parameter is a
    non-contiguous leading-corner view: the step must not assume
    contiguous parameters."""
    rng = _rng(6)
    shapes = [(5, 3), (3,), (2, 2, 4)]
    params = [rng.normal(size=s).astype(np.float32) for s in shapes]
    steps = [[10.0 * rng.normal(size=s).astype(np.float32) for s in shapes]
             for _ in range(4)]
    base = np.zeros((7, 4), np.float32)
    corner = base[:5, :3]
    corner[...] = params[0]
    joint = _Net([_Slot(corner, None)]
                 + [_Slot(p.copy(), None) for p in params[1:]])
    lone = [_Net([_Slot(p.copy(), None)]) for p in params]
    joint_opt = Adam(1e-3)
    lone_opts = [Adam(1e-3) for _ in params]
    for grads in steps:
        for slot, g in zip(joint._slots, grads):
            slot.grads["w"] = g.copy()
        joint_opt.step(joint)
        for net, opt, g in zip(lone, lone_opts, grads):
            net._slots[0].grads["w"] = g.copy()
            opt.step(net)
    for slot, net in zip(joint._slots, lone):
        assert np.ascontiguousarray(slot.params["w"]).tobytes() == \
            net._slots[0].params["w"].tobytes()
    assert not base[5:].any() and not base[:, 3:].any()


def test_relayout_keeps_surviving_state():
    """A tensor joining the step rebuilds the flat layout; the tensors
    already there keep their moments, bit for bit."""
    rng = _rng(7)
    params = [rng.normal(size=s).astype(np.float32)
              for s in [(4, 3), (3,), (6,)]]
    grads = [[rng.normal(size=p.shape).astype(np.float32) for p in params]
             for _ in range(3)]
    steady = _Net([_Slot(p.copy(), None) for p in params[:2]])
    grown = _Net([_Slot(p.copy(), None) for p in params[:2]])
    steady_opt, grown_opt = Adam(1e-2), Adam(1e-2)
    for i, gs in enumerate(grads):
        if i == 2:
            grown._slots.append(_Slot(params[2].copy(), None))
        for net in (steady, grown):
            for slot, g in zip(net._slots, gs):
                slot.grads["w"] = g.copy()
        steady_opt.step(steady)
        grown_opt.step(grown)
    for a, b in zip(steady._slots, grown._slots):
        assert a.params["w"].tobytes() == b.params["w"].tobytes()
