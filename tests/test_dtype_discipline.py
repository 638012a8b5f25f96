"""float32 in -> float32 out for every hot-path op.

The pre-optimization stack silently promoted activations to float64 (the
datasets emitted float64 and several kernels compounded it), doubling
every GEMM's bandwidth.  These tests pin the discipline: each forward
output, cached value used downstream, and backward gradient stays in the
input dtype.  The gradient-check tests feed float64 and still pass, so
the kernels *preserve* dtype rather than force float32.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.tensor.autodiff_ops as ops
from repro.apps.datasets import (make_image_dataset, make_multisource_dataset,
                                 make_profile_dataset)
from repro.tensor import Dense
from repro.tensor.optimizers import Adam
from test_kernel_equivalence import _net

F32 = np.float32


def _r(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape).astype(F32)


def _assert_f32(*arrays):
    for a in arrays:
        assert a.dtype == F32, a.dtype


def test_dense_preserves_float32():
    x, k, b = _r((8, 5)), _r((5, 3), 1), _r(3, 2)
    out, cache = ops.dense_forward(x, k, b)
    gx, gk, gb = ops.dense_backward(_r(out.shape, 3), cache)
    _assert_f32(out, gx, gk, gb)


def test_conv2d_preserves_float32():
    x, k, b = _r((2, 8, 8, 3)), _r((3, 3, 3, 4), 1), _r(4, 2)
    out, cache = ops.conv2d_forward(x, k, b)
    gx, gk, gb = ops.conv2d_backward(_r(out.shape, 3), cache)
    _assert_f32(out, gx, gk, gb)


def test_conv1d_preserves_float32():
    x, k, b = _r((2, 16, 3)), _r((3, 3, 4), 1), _r(4, 2)
    out, cache = ops.conv1d_forward(x, k, b)
    gx, gk, gb = ops.conv1d_backward(_r(out.shape, 3), cache)
    _assert_f32(out, gx, gk, gb)


@pytest.mark.parametrize("fwd,bwd", [
    (ops.maxpool2d_forward, ops.maxpool2d_backward),
    (ops.avgpool2d_forward, ops.avgpool2d_backward),
])
def test_pool2d_preserves_float32(fwd, bwd):
    x = _r((2, 8, 8, 3))
    out, cache = fwd(x, 2)
    _assert_f32(out, bwd(_r(out.shape, 3), cache))


@pytest.mark.parametrize("fwd,bwd", [
    (ops.maxpool1d_forward, ops.maxpool1d_backward),
    (ops.avgpool1d_forward, ops.avgpool1d_backward),
])
def test_pool1d_preserves_float32(fwd, bwd):
    x = _r((2, 16, 3))
    out, cache = fwd(x, 2)
    _assert_f32(out, bwd(_r(out.shape, 3), cache))


@pytest.mark.parametrize("batch_stats", [True, False])
def test_batchnorm_preserves_float32(batch_stats):
    """Regression guard for the NEP-50 trap: ``np.prod`` returning an
    int64 *scalar* promoted the float32 gradient to float64."""
    x = _r((4, 6, 6, 3))
    gamma, beta = np.ones(3, F32), np.zeros(3, F32)
    axes = tuple(range(x.ndim - 1))
    mean = x.mean(axis=axes)
    var = x.var(axis=axes)
    out, cache = ops.batchnorm_forward(x, gamma, beta, mean, var,
                                       batch_stats=batch_stats)
    gx, ggamma, gbeta = ops.batchnorm_backward(_r(out.shape, 3), cache)
    _assert_f32(out, gx, ggamma, gbeta)


def test_dropout_preserves_float32():
    x = _r((16, 16))
    out, mask = ops.dropout_forward(x, 0.4, np.random.default_rng(0))
    _assert_f32(out, mask, ops.dropout_backward(_r(out.shape, 3), mask))


@pytest.mark.parametrize("name", sorted(ops.ACTIVATIONS))
def test_activations_preserve_float32(name):
    fwd, bwd = ops.ACTIVATIONS[name]
    x = _r((8, 5))
    out, cache = fwd(x)
    _assert_f32(out, bwd(_r(out.shape, 3), cache))


def test_softmax_cross_entropy_preserves_float32():
    logits = _r((8, 10))
    onehot = np.zeros((8, 10), F32)
    onehot[np.arange(8), np.arange(8) % 10] = 1.0
    loss, probs = ops.softmax_cross_entropy(logits, onehot)
    assert isinstance(loss, float)
    _assert_f32(probs, ops.softmax_cross_entropy_backward(probs, onehot))


def test_kernels_preserve_float64_for_gradient_checks():
    """Discipline means *preserve*, not force: the finite-difference
    tests rely on float64 staying float64."""
    x = np.random.default_rng(0).normal(size=(2, 6, 6, 3))
    k = np.random.default_rng(1).normal(size=(3, 3, 3, 4))
    out, cache = ops.conv2d_forward(x, k, np.zeros(4))
    gx, gk, gb = ops.conv2d_backward(np.ones_like(out), cache)
    assert out.dtype == np.float64
    assert gx.dtype == gk.dtype == gb.dtype == np.float64


def test_adam_keeps_param_dtype_with_float64_grads():
    """A float64 backward writes its gradients into the network's
    float32 gradient buffer (``out=`` casting), so the step never
    promotes the float32 parameters."""
    net = _net(4, Dense("d", 4))
    x = np.random.default_rng(1).normal(size=(3, 4))
    net.backward(np.ones_like(net.forward(x, training=True)))
    layer = net.layers[0]
    assert np.shares_memory(layer.grads["kernel"], net.flat_grads)
    assert net.flat_grads.any()
    opt = Adam(net, 1e-3)
    opt.step()
    opt.step()
    assert net.flat_grads.dtype == net.flat_params.dtype == F32
    assert layer.params["kernel"].dtype == F32


def test_datasets_emit_float32():
    for ds in (make_image_dataset(n_train=8, n_val=4),
               make_profile_dataset(n_train=8, n_val=4, length=64),
               make_multisource_dataset(n_train=8, n_val=4)):
        xs = ds.x_train if isinstance(ds.x_train, list) else [ds.x_train]
        for x in xs:
            assert x.dtype == F32, ds.name
        assert ds.y_train.dtype == F32, ds.name
