"""Layer shape/behaviour unit tests."""

import numpy as np
import pytest

from repro.tensor import (
    BatchNorm,
    BuildError,
    Conv1D,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
)
from repro.tensor import autodiff_ops as ops


def rng():
    return np.random.default_rng(0)


def test_dense_shapes_and_signature():
    layer = Dense("d", 7)
    assert layer.build((5,), rng()) == (7,)
    assert layer.signature() == ((5, 7), (7,))
    out = layer.forward(np.zeros((3, 5)))
    assert out.shape == (3, 7)


def test_dense_rejects_unflat_input():
    with pytest.raises(BuildError):
        Dense("d", 7).build((4, 4, 2), rng())


def test_conv2d_same_padding_keeps_spatial_dims():
    layer = Conv2D("c", filters=5, kernel_size=3)
    assert layer.build((6, 6, 2), rng()) == (6, 6, 5)
    out = layer.forward(rng().normal(size=(2, 6, 6, 2)))
    assert out.shape == (2, 6, 6, 5)


@pytest.mark.parametrize("layer, shape", [
    (Conv2D("c", filters=3, kernel_size=2), (6, 6, 2)),
    (Conv1D("c", filters=3, kernel_size=2), (6, 2)),
    # adaptive valid convs that do not fit fall back to same padding
    (Conv2D("c", filters=3, kernel_size=4, padding="valid", adaptive=True),
     (3, 3, 2)),
    (Conv1D("c", filters=3, kernel_size=4, padding="valid", adaptive=True),
     (3, 2)),
])
def test_even_kernel_with_same_padding_is_a_build_error(layer, shape):
    # stride-1 same padding of an even kernel would need asymmetric
    # padding; the kernels pad (k-1)//2 per side and lose one row
    with pytest.raises(BuildError, match="odd kernel"):
        layer.build(shape, rng())


def test_even_kernel_with_valid_padding_builds():
    layer = Conv2D("c", filters=3, kernel_size=2, padding="valid")
    assert layer.build((6, 6, 2), rng()) == (5, 5, 3)
    assert layer.forward(rng().normal(size=(2, 6, 6, 2))).shape == \
        (2, 5, 5, 3)


def test_maxpool_halves_spatial_dims():
    layer = MaxPool2D("p", pool_size=2)
    assert layer.build((6, 6, 3), rng()) == (3, 3, 3)
    x = rng().normal(size=(2, 6, 6, 3))
    out = layer.forward(x)
    assert out.shape == (2, 3, 3, 3)
    assert np.all(out >= x[:, ::2, ::2, :])   # max dominates top-left corner


def test_flatten():
    layer = Flatten("f")
    assert layer.build((3, 4, 2), rng()) == (24,)
    assert layer.forward(np.zeros((5, 3, 4, 2))).shape == (5, 24)


def test_batchnorm_normalizes_in_training():
    layer = BatchNorm("bn")
    layer.build((4,), rng())
    x = rng().normal(loc=3.0, scale=2.0, size=(256, 4))
    out = layer.forward(x, training=True)
    assert np.allclose(out.mean(axis=0), 0.0, atol=1e-2)
    assert np.allclose(out.std(axis=0), 1.0, atol=1e-1)
    # running statistics moved toward the batch statistics
    assert not np.allclose(layer.params["moving_mean"], 0.0)


def test_batchnorm_inference_uses_running_stats():
    layer = BatchNorm("bn")
    layer.build((4,), rng())
    x = rng().normal(size=(32, 4))
    out = layer.forward(x, training=False)
    # fresh stats are mean=0/var=1: inference ~ identity
    assert np.allclose(out, x, atol=1e-3)


def test_dropout_only_active_in_training():
    layer = Dropout("do", rate=0.5)
    layer.build((100,), rng())
    x = np.ones((8, 100))
    assert np.array_equal(layer.forward(x, training=False), x)
    dropped = layer.forward(x, training=True)
    assert (dropped == 0).any()
    # inverted dropout preserves the expectation
    assert dropped.mean() == pytest.approx(1.0, abs=0.2)


def test_dropout_stream_is_built_lazily_and_draws_the_seeded_masks():
    """The mask stream appears at the first training forward that drops
    anything, and draws what ``default_rng(seed)`` draws."""
    x = np.ones((4, 32), dtype=np.float32)
    layer = Dropout("do", rate=0.5, seed=7)
    layer.build((32,), rng())
    assert layer._rng is None
    layer.forward(x, training=False)
    assert layer._rng is None            # evaluation draws nothing
    masks = []
    for _ in range(3):
        layer.forward(x, training=True)
        masks.append(layer._cache)
    eager = np.random.default_rng(7)
    for mask in masks:
        _, expected = ops.dropout_forward(x, 0.5, eager)
        assert np.array_equal(mask, expected)
    idle = Dropout("idle", rate=0.0, seed=7)
    idle.build((32,), rng())
    assert idle.forward(x, training=True) is x
    assert idle.backward(x) is x
    assert idle._rng is None             # rate 0 never draws
