"""DAG ``Network``: topologically executed layers with named weights.

The network is a directed acyclic graph of layers.  Most candidate
architectures are chains, but the Uno application needs several input
towers merged by a :class:`~repro.tensor.layers.Concatenate` layer, so
nodes may reference multiple predecessors.  Inputs are addressed as
``"input:0"``, ``"input:1"``, ...

Weights are exposed as an *ordered* ``{"layer.param": array}`` mapping
(topological layer order, declaration order within a layer) — the exact
substrate the shape-sequence/transfer machinery and the checkpoint store
operate on.

Every trainable tensor is a view of one contiguous float32 buffer,
``flat_params``, and its gradient a view of a same-shaped buffer,
``flat_grads``, that the backward kernels write into, so
:class:`~repro.tensor.optimizers.Adam` steps the network as one vector.
Initialisation is deferred to the first ``forward`` or ``get_weights``:
a tensor copied in before it (``set_weights``, which
``transfer_weights`` calls) skips its draws, and the build's stream is
advanced past them, so every other tensor gets the bits an eager build
gives it (DESIGN.md "Transfer before init").
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

import numpy as np

from .initializers import skip
from .layers import Concatenate, Layer


class Network:
    def __init__(self, input_shape, name: str = "network"):
        """``input_shape``: one shape tuple, or a sequence of shape tuples
        for a multi-input network (shapes exclude the batch axis)."""
        if input_shape and isinstance(input_shape[0], (tuple, list)):
            self.input_shapes = tuple(tuple(s) for s in input_shape)
        else:
            self.input_shapes = (tuple(input_shape),)
        self.name = name
        self._layers: list[Layer] = []
        self._inputs_of: dict[str, list[str]] = {}  # layer name -> parent refs
        self._by_name: dict[str, Layer] = {}
        self._output: Optional[str] = None
        self._live: dict[str, bool] = {}
        self._init_rng: Optional[np.random.Generator] = None
        self._filled: set[str] = set()
        self.flat_params = np.empty(0, dtype=np.float32)
        self.flat_grads = np.empty(0, dtype=np.float32)
        self.built = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add(self, layer: Layer,
            inputs: Optional[Sequence[str]] = None) -> Layer:
        """Append ``layer``, wired to ``inputs`` (default: previous layer,
        or ``input:0`` for the first).  Input refs are layer names or
        ``"input:<i>"``."""
        if self.built:
            raise RuntimeError("cannot add layers to a built network")
        if layer.name in self._by_name:
            raise ValueError(f"duplicate layer name {layer.name!r}")
        if inputs is None:
            inputs = [self._layers[-1].name] if self._layers else ["input:0"]
        else:
            inputs = list(inputs)
        for ref in inputs:
            if not self._valid_ref(ref):
                raise ValueError(f"unknown input ref {ref!r} for {layer.name}")
        self._layers.append(layer)
        self._by_name[layer.name] = layer
        self._inputs_of[layer.name] = inputs
        self._output = layer.name
        return layer

    def _valid_ref(self, ref: str) -> bool:
        if ref.startswith("input:"):
            return int(ref.split(":", 1)[1]) < len(self.input_shapes)
        return ref in self._by_name

    def build(self, rng=None) -> "Network":
        """Lay every layer's tensors out in the network's buffers
        (topological order = add order, which is topological by
        construction).  Initialisation from ``rng`` is deferred (see the
        module docstring); ``rng`` itself is left where an eager build
        leaves it."""
        if self.built:
            raise RuntimeError("network already built")
        shapes: dict[str, tuple] = {
            f"input:{i}": s for i, s in enumerate(self.input_shapes)
        }
        tensors = []    # (layer, param name, shape), declaration order
        for layer in self._layers:
            in_shapes = [shapes[p] for p in self._inputs_of[layer.name]]
            if not isinstance(layer, Concatenate):
                if len(in_shapes) != 1:
                    raise ValueError(
                        f"{layer.name}: only Concatenate accepts multiple "
                        f"inputs"
                    )
                in_shapes = in_shapes[0]
            tensors += [(layer, p, s)
                        for p, s in layer.declare(in_shapes).items()]
            shapes[layer.name] = layer.output_shape
        n_train = sum(math.prod(s) for l, p, s in tensors if l.trains(p))
        self.flat_params = np.empty(n_train, dtype=np.float32)
        self.flat_grads = np.zeros(n_train, dtype=np.float32)
        offset = 0
        for layer, pname, shape in tensors:
            if not layer.trains(pname):     # running statistics
                layer.params[pname] = np.empty(shape, dtype=np.float32)
                continue
            span = slice(offset, offset + math.prod(shape))
            layer.params[pname] = self.flat_params[span].reshape(shape)
            layer.grads[pname] = self.flat_grads[span].reshape(shape)
            offset = span.stop
        if isinstance(rng, np.random.Generator):
            # a caller's generator: the deferred draws come from a copy,
            # and the caller's stream moves on as if they had been made
            bits = type(rng.bit_generator)(0)
            bits.state = rng.bit_generator.state
            self._init_rng = np.random.Generator(bits)
            for layer, pname, shape in tensors:
                skip(layer.initializer(pname), math.prod(shape), rng)
        else:
            self._init_rng = np.random.default_rng(rng)
        self._live = self.backward_liveness()
        self.built = True
        return self

    def initialize(self) -> None:
        """Run the deferred initialisation (a no-op once done): draw every
        tensor not copied in since :meth:`build`, in declaration order,
        advancing the stream past the copied ones."""
        rng, self._init_rng = self._init_rng, None
        if rng is None:
            return
        for name, layer, pname in self._tensors():
            init = layer.initializer(pname)
            if name in self._filled:
                skip(init, layer.params[pname].size, rng)
            else:
                init(layer.params[pname], rng)
        self._filled = set()

    def backward_liveness(self) -> dict[str, bool]:
        """``{layer name: runs backward}`` for a built network.

        A layer runs backward iff it has trainable parameters or one of
        its parents runs backward; every other gradient is dead.  A live
        layer needs the input gradient for a parent iff that parent is
        live (network inputs never are).  :meth:`build` computes it once
        and :meth:`backward` schedules from it.
        """
        live: dict[str, bool] = {}
        for layer in self._layers:
            live[layer.name] = any(
                layer.trains(p) for p in layer.params
            ) or any(live.get(p, False) for p in self._inputs_of[layer.name])
        return live

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def forward(self, x, training: bool = False):
        """``x``: one array, or a sequence of arrays (multi-input)."""
        if not self.built:
            raise RuntimeError("network not built")
        self.initialize()
        if isinstance(x, (list, tuple)):
            acts = {f"input:{i}": a for i, a in enumerate(x)}
        else:
            acts = {"input:0": x}
        out = None
        for layer in self._layers:
            parents = self._inputs_of[layer.name]
            if isinstance(layer, Concatenate):
                out = layer.forward([acts[p] for p in parents],
                                    training=training)
            else:
                out = layer.forward(acts[parents[0]], training=training)
            acts[layer.name] = out
        return out

    predict = forward

    def backward(self, gout) -> None:
        """Backprop from the output gradient, filling each live layer's
        ``grads`` (see :meth:`backward_liveness`).  A layer whose parent
        is not live gets ``need_gx=False``; layers that are not live are
        not called.  Input gradients w.r.t. the network inputs are never
        computed."""
        live = self._live
        pending: dict[str, np.ndarray] = {self._output: gout}
        for layer in reversed(self._layers):
            g = pending.pop(layer.name, None)
            if g is None or not live[layer.name]:
                continue
            parents = self._inputs_of[layer.name]
            if isinstance(layer, Concatenate):
                gxs = layer.backward(g)
            else:
                gxs = [layer.backward(g, live.get(parents[0], False))]
            for parent, gp in zip(parents, gxs):
                if not live.get(parent, False):
                    continue
                if parent in pending:
                    pending[parent] = pending[parent] + gp
                else:
                    pending[parent] = gp

    # ------------------------------------------------------------------
    # weights / introspection
    # ------------------------------------------------------------------
    @property
    def layers(self) -> list[Layer]:
        return list(self._layers)

    def parameterized_layers(self) -> list[Layer]:
        return [l for l in self._layers if l.params]

    def _tensors(self) -> Iterable[tuple[str, Layer, str]]:
        """``(tensor name, layer, param name)`` in declaration order."""
        for layer in self._layers:
            for pname in layer.params:
                yield f"{layer.name}.{pname}", layer, pname

    def get_weights(self, copy: bool = True) -> dict[str, np.ndarray]:
        """Ordered ``{"layer.param": array}`` — copies by default, safe
        to mutate.  ``copy=False`` returns the live parameter arrays
        (zero-copy views of the buffer); the caller must not mutate
        them."""
        self.initialize()
        return {name: layer.params[p].copy() if copy else layer.params[p]
                for name, layer, p in self._tensors()}

    def set_weights(self, weights: dict[str, np.ndarray],
                    strict: bool = True) -> None:
        """Copy ``weights`` into the named tensors in place (cast to
        their dtype).  Before initialisation, a tensor set here is not
        drawn."""
        for key, arr in weights.items():
            lname, _, pname = key.rpartition(".")
            layer = self._by_name.get(lname)
            if layer is None or pname not in layer.params:
                if strict:
                    raise KeyError(f"no tensor named {key!r} in {self.name}")
                continue
            target = layer.params[pname]
            if target.shape != np.shape(arr):
                raise ValueError(
                    f"{key}: shape mismatch {np.shape(arr)} vs {target.shape}"
                )
            target[...] = arr
            if self._init_rng is not None:
                self._filled.add(key)

    def num_parameters(self) -> int:
        return sum(l.num_parameters for l in self._layers)

    def trainable(self) -> Iterable[tuple[str, Layer, str]]:
        """Yield (tensor_name, layer, param_name) for trained tensors."""
        for name, layer, pname in self._tensors():
            if layer.trains(pname):
                yield name, layer, pname
