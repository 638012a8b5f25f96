"""Operation descriptors: picklable factories mapping a choice to a layer.

An operation describes *what* a variable node can become; calling
``op.to_layer(name)`` instantiates the concrete
:mod:`repro.tensor.layers` layer named ``f"{node_name}_{op.kind}"`` —
the naming that weight tensors inherit (e.g. ``head_dense.kernel``).
Conv and pool ops carry no geometry options: the layers own the one
rule (same padding, odd kernels, a window-sized pool step that passes
an input smaller than the window through).
"""

from __future__ import annotations

from typing import Optional

from ..tensor import layers as L


class Op:
    kind = "op"

    def to_layer(self, name: str) -> L.Layer:
        raise NotImplementedError

    def layer_name(self, node_name: str) -> str:
        return f"{node_name}_{self.kind}"

    def describe(self) -> str:
        return self.kind

    def __repr__(self):
        return f"{type(self).__name__}({self.describe()})"


class IdentityOp(Op):
    kind = "identity"

    def to_layer(self, name):
        return L.Identity(name)


class DenseOp(Op):
    kind = "dense"

    def __init__(self, units: int, activation: Optional[str] = None):
        self.units = int(units)
        self.activation = activation

    def to_layer(self, name):
        return L.Dense(name, self.units, self.activation)

    def describe(self):
        act = f", {self.activation}" if self.activation else ""
        return f"dense({self.units}{act})"


class Conv2DOp(Op):
    kind = "conv2d"

    def __init__(self, filters: int, kernel_size: int = 3,
                 activation: Optional[str] = None):
        self.filters = int(filters)
        self.kernel_size = int(kernel_size)
        self.activation = activation

    def to_layer(self, name):
        return L.Conv2D(name, self.filters, self.kernel_size, self.activation)

    def describe(self):
        act = f", {self.activation}" if self.activation else ""
        return (f"conv2d({self.filters}, {self.kernel_size}x"
                f"{self.kernel_size}{act})")


class Conv1DOp(Op):
    kind = "conv1d"

    def __init__(self, filters: int, kernel_size: int = 3,
                 activation: Optional[str] = None):
        self.filters = int(filters)
        self.kernel_size = int(kernel_size)
        self.activation = activation

    def to_layer(self, name):
        return L.Conv1D(name, self.filters, self.kernel_size, self.activation)

    def describe(self):
        act = f", {self.activation}" if self.activation else ""
        return f"conv1d({self.filters}, k{self.kernel_size}{act})"


class _PoolOp(Op):
    layer_cls: type = L.MaxPool2D

    def __init__(self, pool_size: int = 2):
        self.pool_size = int(pool_size)

    def to_layer(self, name):
        return self.layer_cls(name, self.pool_size)

    def describe(self):
        return f"{self.kind}({self.pool_size})"


class MaxPool2DOp(_PoolOp):
    kind = "maxpool2d"
    layer_cls = L.MaxPool2D


class AvgPool2DOp(_PoolOp):
    kind = "avgpool2d"
    layer_cls = L.AvgPool2D


class MaxPool1DOp(_PoolOp):
    kind = "maxpool1d"
    layer_cls = L.MaxPool1D


class AvgPool1DOp(_PoolOp):
    kind = "avgpool1d"
    layer_cls = L.AvgPool1D


class BatchNormOp(Op):
    kind = "batchnorm"

    def to_layer(self, name):
        return L.BatchNorm(name)


class ActivationOp(Op):
    kind = "activation"

    def __init__(self, fn: str):
        self.fn = fn

    def to_layer(self, name):
        return L.Activation(name, self.fn)

    def describe(self):
        return self.fn


class DropoutOp(Op):
    kind = "dropout"

    def __init__(self, rate: float):
        self.rate = float(rate)

    def to_layer(self, name):
        return L.Dropout(name, self.rate)

    def describe(self):
        return f"dropout({self.rate})"


class FlattenOp(Op):
    kind = "flatten"

    def to_layer(self, name):
        return L.Flatten(name)


class ConcatenateOp(Op):
    kind = "concat"

    def to_layer(self, name):
        return L.Concatenate(name)
