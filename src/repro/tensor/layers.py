"""Layer classes: named parameter tensors + build/forward/backward.

A layer owns an ordered dict of named parameter tensors (``params``) and
their gradients (``grads``).  ``build(input_shape, rng)`` materialises the
tensors for a concrete input shape and returns the output shape; building
twice is an error.  Shapes exclude the batch axis.

``BuildError`` signals an architecture that cannot be instantiated (e.g. a
valid-padding conv larger than its input).  NAS estimation converts it to
``FAILURE_SCORE``; the *adaptive* flags on conv/pool layers degrade
gracefully instead (see DESIGN.md "Adaptive conv/pool guards").
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import autodiff_ops as ops
from .initializers import as_rng, get_initializer


class BuildError(ValueError):
    """The layer cannot be built for the given input shape."""


class Layer:
    """Base class.  Subclasses set ``params`` in ``build``."""

    def __init__(self, name: str):
        self.name = name
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.built = False
        self.input_shape: Optional[tuple] = None
        self.output_shape: Optional[tuple] = None
        self._cache = None

    # -- lifecycle ---------------------------------------------------------
    def build(self, input_shape, rng) -> tuple:
        if self.built:
            raise RuntimeError(f"layer {self.name} built twice")
        self.input_shape = tuple(input_shape)
        self.output_shape = self._build(self.input_shape, as_rng(rng))
        self.built = True
        return self.output_shape

    def _build(self, input_shape, rng) -> tuple:
        return input_shape

    # -- execution ---------------------------------------------------------
    def forward(self, x, training: bool = False):
        raise NotImplementedError

    def backward(self, gout, need_gx: bool = True):
        """Fill ``grads`` and return the input gradient.  With
        ``need_gx=False`` (no ancestor trains) a parameterised layer skips
        the input-gradient work and returns ``None``."""
        raise NotImplementedError

    # -- introspection -----------------------------------------------------
    @property
    def num_parameters(self) -> int:
        return int(sum(p.size for p in self.params.values()))

    def signature(self) -> tuple:
        """The layer's shape signature: the tuple of its tensor shapes."""
        return tuple(tuple(p.shape) for p in self.params.values())

    def __repr__(self):
        return f"<{type(self).__name__} {self.name} {self.signature()}>"


class Identity(Layer):
    def forward(self, x, training=False):
        return x

    def backward(self, gout, need_gx=True):
        return gout


class Flatten(Layer):
    def _build(self, input_shape, rng):
        return (int(np.prod(input_shape)),)

    def forward(self, x, training=False):
        self._cache = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, gout, need_gx=True):
        return gout.reshape(self._cache)


class Activation(Layer):
    def __init__(self, name: str, fn: str):
        super().__init__(name)
        if fn not in ops.ACTIVATIONS:
            raise ValueError(f"unknown activation {fn!r}")
        self.fn = fn

    def forward(self, x, training=False):
        fwd, _ = ops.ACTIVATIONS[self.fn]
        out, self._cache = fwd(x)
        return out

    def backward(self, gout, need_gx=True):
        _, bwd = ops.ACTIVATIONS[self.fn]
        return bwd(gout, self._cache)


class Dropout(Layer):
    def __init__(self, name: str, rate: float, seed: int = 0):
        super().__init__(name)
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = np.random.default_rng(seed)

    def forward(self, x, training=False):
        if not training or self.rate == 0.0:
            self._cache = None
            return x
        out, self._cache = ops.dropout_forward(x, self.rate, self._rng)
        return out

    def backward(self, gout, need_gx=True):
        if self._cache is None:
            return gout
        return ops.dropout_backward(gout, self._cache)


class Dense(Layer):
    def __init__(self, name: str, units: int, activation: Optional[str] = None,
                 kernel_init="glorot_uniform"):
        super().__init__(name)
        self.units = int(units)
        self.activation = activation
        self.kernel_init = kernel_init
        self._act_cache = None

    def _build(self, input_shape, rng):
        if len(input_shape) != 1:
            raise BuildError(
                f"{self.name}: Dense needs a flat input, got {input_shape}"
            )
        init = get_initializer(self.kernel_init)
        self.params["kernel"] = init((input_shape[0], self.units), rng)
        self.params["bias"] = np.zeros(self.units, dtype=np.float32)
        return (self.units,)

    def forward(self, x, training=False):
        out, self._cache = ops.dense_forward(
            x, self.params["kernel"], self.params["bias"]
        )
        if self.activation:
            fwd, _ = ops.ACTIVATIONS[self.activation]
            out, self._act_cache = fwd(out)
        return out

    def backward(self, gout, need_gx=True):
        if self.activation:
            _, bwd = ops.ACTIVATIONS[self.activation]
            gout = bwd(gout, self._act_cache)
        gx, gk, gb = ops.dense_backward(gout, self._cache, need_gx)
        self.grads["kernel"] = gk
        self.grads["bias"] = gb
        return gx


class Conv2D(Layer):
    def __init__(self, name: str, filters: int, kernel_size: int,
                 padding: str = "same", activation: Optional[str] = None,
                 adaptive: bool = False, kernel_init="glorot_uniform"):
        super().__init__(name)
        self.filters = int(filters)
        self.kernel_size = int(kernel_size)
        self.padding = padding
        self.activation = activation
        self.adaptive = adaptive
        self.kernel_init = kernel_init
        self._act_cache = None
        self._effective_padding = padding

    def _build(self, input_shape, rng):
        if len(input_shape) != 3:
            raise BuildError(
                f"{self.name}: Conv2D needs (H, W, C) input, got {input_shape}"
            )
        h, w, c = input_shape
        k = self.kernel_size
        self._effective_padding = self.padding
        if self.padding == "valid" and (k > h or k > w):
            if not self.adaptive:
                raise BuildError(
                    f"{self.name}: valid {k}x{k} conv does not fit {h}x{w}"
                )
            self._effective_padding = "same"
        if self._effective_padding == "same" and k % 2 == 0:
            raise BuildError(
                f"{self.name}: same padding needs an odd kernel, got {k}"
            )
        init = get_initializer(self.kernel_init)
        self.params["kernel"] = init((k, k, c, self.filters), rng)
        self.params["bias"] = np.zeros(self.filters, dtype=np.float32)
        if self._effective_padding == "same":
            return (h, w, self.filters)
        return (h - k + 1, w - k + 1, self.filters)

    def forward(self, x, training=False):
        out, self._cache = ops.conv2d_forward(
            x, self.params["kernel"], self.params["bias"],
            self._effective_padding,
        )
        if self.activation:
            fwd, _ = ops.ACTIVATIONS[self.activation]
            out, self._act_cache = fwd(out)
        return out

    def backward(self, gout, need_gx=True):
        if self.activation:
            _, bwd = ops.ACTIVATIONS[self.activation]
            gout = bwd(gout, self._act_cache)
        gx, gk, gb = ops.conv2d_backward(gout, self._cache, need_gx)
        self.grads["kernel"] = gk
        self.grads["bias"] = gb
        return gx


class Conv1D(Layer):
    def __init__(self, name: str, filters: int, kernel_size: int,
                 padding: str = "same", activation: Optional[str] = None,
                 adaptive: bool = False, kernel_init="glorot_uniform"):
        super().__init__(name)
        self.filters = int(filters)
        self.kernel_size = int(kernel_size)
        self.padding = padding
        self.activation = activation
        self.adaptive = adaptive
        self.kernel_init = kernel_init
        self._act_cache = None
        self._effective_padding = padding

    def _build(self, input_shape, rng):
        if len(input_shape) != 2:
            raise BuildError(
                f"{self.name}: Conv1D needs (L, C) input, got {input_shape}"
            )
        length, c = input_shape
        k = self.kernel_size
        self._effective_padding = self.padding
        if self.padding == "valid" and k > length:
            if not self.adaptive:
                raise BuildError(
                    f"{self.name}: valid size-{k} conv does not fit L={length}"
                )
            self._effective_padding = "same"
        if self._effective_padding == "same" and k % 2 == 0:
            raise BuildError(
                f"{self.name}: same padding needs an odd kernel, got {k}"
            )
        init = get_initializer(self.kernel_init)
        self.params["kernel"] = init((k, c, self.filters), rng)
        self.params["bias"] = np.zeros(self.filters, dtype=np.float32)
        if self._effective_padding == "same":
            return (length, self.filters)
        return (length - k + 1, self.filters)

    def forward(self, x, training=False):
        out, self._cache = ops.conv1d_forward(
            x, self.params["kernel"], self.params["bias"],
            self._effective_padding,
        )
        if self.activation:
            fwd, _ = ops.ACTIVATIONS[self.activation]
            out, self._act_cache = fwd(out)
        return out

    def backward(self, gout, need_gx=True):
        if self.activation:
            _, bwd = ops.ACTIVATIONS[self.activation]
            gout = bwd(gout, self._act_cache)
        gx, gk, gb = ops.conv1d_backward(gout, self._cache, need_gx)
        self.grads["kernel"] = gk
        self.grads["bias"] = gb
        return gx


class _Pool(Layer):
    KIND = "max"
    NDIM = 3  # spatial input rank incl. channels

    def __init__(self, name: str, pool_size: int, stride: Optional[int] = None,
                 adaptive: bool = False):
        super().__init__(name)
        self.pool_size = int(pool_size)
        if stride is not None and int(stride) != self.pool_size:
            raise ValueError("only stride == pool_size pooling is supported")
        self.adaptive = adaptive
        self._noop = False

    def _build(self, input_shape, rng):
        if len(input_shape) != self.NDIM:
            raise BuildError(
                f"{self.name}: pooling needs rank-{self.NDIM} input, "
                f"got {input_shape}"
            )
        p = self.pool_size
        spatial = input_shape[:-1]
        if any(p > s for s in spatial):
            if not self.adaptive:
                raise BuildError(
                    f"{self.name}: pool {p} larger than input {spatial}"
                )
            self._noop = True
            return input_shape
        return tuple(s // p for s in spatial) + (input_shape[-1],)

    def forward(self, x, training=False):
        if self._noop:
            return x
        fwd = {
            ("max", 3): ops.maxpool2d_forward,
            ("avg", 3): ops.avgpool2d_forward,
            ("max", 2): ops.maxpool1d_forward,
            ("avg", 2): ops.avgpool1d_forward,
        }[(self.KIND, self.NDIM)]
        out, self._cache = fwd(x, self.pool_size)
        return out

    def backward(self, gout, need_gx=True):
        if self._noop:
            return gout
        bwd = {
            ("max", 3): ops.maxpool2d_backward,
            ("avg", 3): ops.avgpool2d_backward,
            ("max", 2): ops.maxpool1d_backward,
            ("avg", 2): ops.avgpool1d_backward,
        }[(self.KIND, self.NDIM)]
        return bwd(gout, self._cache)


class MaxPool2D(_Pool):
    KIND, NDIM = "max", 3


class AvgPool2D(_Pool):
    KIND, NDIM = "avg", 3


class MaxPool1D(_Pool):
    KIND, NDIM = "max", 2


class AvgPool1D(_Pool):
    KIND, NDIM = "avg", 2


class BatchNorm(Layer):
    """Channels-last batch normalisation.

    Four named ``(C,)`` tensors per DESIGN.md: gamma/beta are trained,
    moving_mean/moving_var are running statistics (still checkpointed and
    transferred — they are part of the model state).
    """

    TRAINABLE = ("gamma", "beta")

    def __init__(self, name: str, momentum: float = 0.9, eps: float = 1e-5):
        super().__init__(name)
        self.momentum = momentum
        self.eps = eps

    def _build(self, input_shape, rng):
        c = input_shape[-1]
        self.params["gamma"] = np.ones(c, dtype=np.float32)
        self.params["beta"] = np.zeros(c, dtype=np.float32)
        self.params["moving_mean"] = np.zeros(c, dtype=np.float32)
        self.params["moving_var"] = np.ones(c, dtype=np.float32)
        return input_shape

    def forward(self, x, training=False):
        if training:
            axes = tuple(range(x.ndim - 1))
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            m = self.momentum
            # running stats updated in place (no realloc + astype copies);
            # float64 batch stats are cast by the in-place ops
            mm, mv = self.params["moving_mean"], self.params["moving_var"]
            mm *= m
            mm += (1 - m) * mean
            mv *= m
            mv += (1 - m) * var
        else:
            mean = self.params["moving_mean"]
            var = self.params["moving_var"]
        out, self._cache = ops.batchnorm_forward(
            x, self.params["gamma"], self.params["beta"], mean, var,
            self.eps, batch_stats=training,
        )
        return out

    def backward(self, gout, need_gx=True):
        gx, ggamma, gbeta = ops.batchnorm_backward(gout, self._cache,
                                                   need_gx)
        self.grads["gamma"] = ggamma
        self.grads["beta"] = gbeta
        return gx


class Concatenate(Layer):
    """Merge several flat inputs along the feature axis (multi-input Uno)."""

    def _build(self, input_shape, rng):
        # input_shape is a list of flat shapes
        shapes = [tuple(s) for s in input_shape]
        if any(len(s) != 1 for s in shapes):
            raise BuildError(
                f"{self.name}: Concatenate needs flat inputs, got {shapes}"
            )
        self._splits = np.cumsum([s[0] for s in shapes])[:-1]
        return (int(sum(s[0] for s in shapes)),)

    def forward(self, xs, training=False):
        return np.concatenate(xs, axis=-1)

    def backward(self, gout, need_gx=True):
        return np.split(gout, self._splits, axis=-1)
