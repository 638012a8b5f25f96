"""Layer classes: named parameter tensors + build/forward/backward.

A layer owns an ordered dict of named parameter tensors (``params``) and
their gradients (``grads``).  ``infer(input_shape)`` is the layer's one
shape rule: it returns the output shape and the parameter shapes without
allocating anything.  ``declare(input_shape)`` runs ``infer`` and fixes
the layer's shapes; a :class:`~repro.tensor.network.Network` then binds
the parameters to views of its one buffer.  A layer on its own is built
with ``build(input_shape, rng)``, which declares, allocates and
initialises the parameters from ``rng`` in declaration order.  Building
twice is an error.  The static shape sequence
(:func:`repro.transfer.arch_shape_sequence`) calls ``infer`` too, so no
shape rule exists twice.  Shapes exclude the batch
axis.

``BuildError`` signals an architecture that cannot be instantiated (e.g. a
valid-padding conv larger than its input).  NAS estimation converts it to
``FAILURE_SCORE``; the *adaptive* flags on conv/pool layers degrade
gracefully instead (see DESIGN.md "Adaptive conv/pool guards").
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import autodiff_ops as ops
from .initializers import glorot_uniform, ones, zeros


class BuildError(ValueError):
    """The layer cannot be built for the given input shape."""


class Layer:
    """Base class.  Subclasses override ``infer`` (and ``initializer``
    when a parameter is neither a glorot-uniform ``kernel`` nor zero).
    ``TRAINABLE`` names the parameters the optimizer steps; ``None``
    means all of them."""

    TRAINABLE: Optional[tuple] = None

    def __init__(self, name: str):
        self.name = name
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.built = False
        self.input_shape: Optional[tuple] = None
        self.output_shape: Optional[tuple] = None
        self._cache = None

    # -- lifecycle ---------------------------------------------------------
    def declare(self, input_shape) -> dict[str, tuple]:
        """Fix the layer's shapes for ``input_shape``; returns
        ``{param name: shape}`` in declaration order."""
        if self.built:
            raise RuntimeError(f"layer {self.name} built twice")
        self.input_shape = tuple(input_shape)
        self.output_shape, param_shapes = self.infer(self.input_shape)
        self.built = True
        return param_shapes

    def build(self, input_shape, rng) -> tuple:
        """Stand-alone build: declare, then initialise own arrays from
        the generator ``rng``."""
        for pname, shape in self.declare(input_shape).items():
            self.params[pname] = np.empty(shape, dtype=np.float32)
            self.initializer(pname)(self.params[pname], rng)
        return self.output_shape

    def trains(self, param: str) -> bool:
        return self.TRAINABLE is None or param in self.TRAINABLE

    def infer(self, input_shape) -> tuple[tuple, dict[str, tuple]]:
        """``(output_shape, {param name: shape})`` for ``input_shape``,
        parameters in declaration order.  Allocates nothing; raises
        :class:`BuildError` when the layer cannot consume the shape.  It
        also sets the build-time state ``forward`` reads (padding
        fallback, pool no-op, concat splits)."""
        return tuple(input_shape), {}

    def initializer(self, param: str):
        """``init(out, rng)`` for parameter ``param``: glorot-uniform for
        a ``kernel``, zeros for anything else unless a layer says
        otherwise."""
        return glorot_uniform if param == "kernel" else zeros

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


class Identity(Layer):
    def forward(self, x, training=False):
        return x

    def backward(self, gout, need_gx=True):
        return gout


class Flatten(Layer):
    def infer(self, input_shape):
        return (int(np.prod(input_shape)),), {}

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
    """Inverted dropout.  Its mask stream is seeded by ``seed`` and
    built at the first training forward that drops anything, so a layer
    that never drops (evaluation only, or ``rate == 0``) never builds
    one."""

    def __init__(self, name: str, rate: float, seed: int = 0):
        super().__init__(name)
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._seed = seed
        self._rng: Optional[np.random.Generator] = None

    def forward(self, x, training=False):
        if not training or self.rate == 0.0:
            self._cache = None
            return x
        if self._rng is None:
            self._rng = np.random.default_rng(self._seed)
        out, self._cache = ops.dropout_forward(x, self.rate, self._rng)
        return out

    def backward(self, gout, need_gx=True):
        if self._cache is None:
            return gout
        return ops.dropout_backward(gout, self._cache)


class Dense(Layer):
    def __init__(self, name: str, units: int, activation: Optional[str] = None):
        super().__init__(name)
        self.units = int(units)
        self.activation = activation
        self._act_cache = None

    def infer(self, input_shape):
        if len(input_shape) != 1:
            raise BuildError(
                f"{self.name}: Dense needs a flat input, got {input_shape}"
            )
        return (self.units,), {"kernel": (input_shape[0], self.units),
                               "bias": (self.units,)}

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
        # a network bound the gradient views; a stand-alone layer reuses
        # its last gradients, or the kernel allocates them
        gx, self.grads["kernel"], self.grads["bias"] = ops.dense_backward(
            gout, self._cache, need_gx,
            self.grads.get("kernel"), self.grads.get("bias"))
        return gx


class _Conv(Layer):
    """Stride-1 convolution over the ``NDIM - 1`` leading axes of a
    channels-last input, with an optional fused activation.  Subclasses
    set ``NDIM`` (input rank incl. channels) and the kernel pair."""

    def __init__(self, name: str, filters: int, kernel_size: int,
                 padding: str = "same", activation: Optional[str] = None,
                 adaptive: bool = False):
        super().__init__(name)
        self.filters = int(filters)
        self.kernel_size = int(kernel_size)
        if self.kernel_size < 1:
            raise ValueError(f"kernel_size must be >= 1, got {kernel_size}")
        self.padding = padding
        self.activation = activation
        self.adaptive = adaptive
        self._act_cache = None
        self._effective_padding = padding

    def infer(self, input_shape):
        if len(input_shape) != self.NDIM:
            raise BuildError(
                f"{self.name}: {type(self).__name__} needs rank-{self.NDIM} "
                f"channels-last input, got {input_shape}"
            )
        *spatial, c = input_shape
        k = self.kernel_size
        self._effective_padding = self.padding
        if self.padding == "valid" and any(k > s for s in spatial):
            if not self.adaptive:
                raise BuildError(
                    f"{self.name}: valid size-{k} conv does not fit "
                    f"{tuple(spatial)}"
                )
            self._effective_padding = "same"
        if self._effective_padding == "same":
            if k % 2 == 0:
                raise BuildError(
                    f"{self.name}: same padding needs an odd kernel, got {k}"
                )
        else:
            spatial = [s - k + 1 for s in spatial]
        return (*spatial, self.filters), {
            "kernel": (k,) * len(spatial) + (c, self.filters),
            "bias": (self.filters,),
        }

    def forward(self, x, training=False):
        out, self._cache = self.FORWARD(
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
        gx, self.grads["kernel"], self.grads["bias"] = self.BACKWARD(
            gout, self._cache, need_gx,
            self.grads.get("kernel"), self.grads.get("bias"))
        return gx


class Conv2D(_Conv):
    NDIM = 3
    FORWARD = staticmethod(ops.conv2d_forward)
    BACKWARD = staticmethod(ops.conv2d_backward)


class Conv1D(_Conv):
    NDIM = 2
    FORWARD = staticmethod(ops.conv1d_forward)
    BACKWARD = staticmethod(ops.conv1d_backward)


class _Pool(Layer):
    KIND = "max"
    NDIM = 3  # spatial input rank incl. channels

    def __init__(self, name: str, pool_size: int, stride: Optional[int] = None,
                 adaptive: bool = False):
        super().__init__(name)
        self.pool_size = int(pool_size)
        if self.pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {pool_size}")
        if stride is not None and int(stride) != self.pool_size:
            raise ValueError("only stride == pool_size pooling is supported")
        self.adaptive = adaptive
        self._noop = False

    def infer(self, input_shape):
        if len(input_shape) != self.NDIM:
            raise BuildError(
                f"{self.name}: pooling needs rank-{self.NDIM} input, "
                f"got {input_shape}"
            )
        p = self.pool_size
        spatial = input_shape[:-1]
        self._noop = any(p > s for s in spatial)
        if self._noop:
            if not self.adaptive:
                raise BuildError(
                    f"{self.name}: pool {p} larger than input {spatial}"
                )
            return input_shape, {}
        return tuple(s // p for s in spatial) + (input_shape[-1],), {}

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

    def infer(self, input_shape):
        if not input_shape:
            raise BuildError(f"{self.name}: BatchNorm needs a non-scalar input")
        c = (input_shape[-1],)
        return input_shape, {"gamma": c, "beta": c, "moving_mean": c,
                             "moving_var": c}

    def initializer(self, param):
        return ones if param in ("gamma", "moving_var") else zeros

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
        gx, self.grads["gamma"], self.grads["beta"] = ops.batchnorm_backward(
            gout, self._cache, need_gx,
            self.grads.get("gamma"), self.grads.get("beta"))
        return gx


class Concatenate(Layer):
    """Merge several flat inputs along the feature axis (multi-input Uno)."""

    def infer(self, input_shape):
        # input_shape is a sequence of flat shapes
        shapes = [tuple(s) for s in input_shape]
        if any(len(s) != 1 for s in shapes):
            raise BuildError(
                f"{self.name}: Concatenate needs flat inputs, got {shapes}"
            )
        ends = np.cumsum([s[0] for s in shapes])
        self._slices = [slice(int(e) - s[0], int(e))
                        for e, s in zip(ends, shapes)]
        return (int(sum(s[0] for s in shapes)),), {}

    def forward(self, xs, training=False):
        return np.concatenate(xs, axis=-1)

    def backward(self, gout, need_gx=True):
        return [gout[..., s] for s in self._slices]
