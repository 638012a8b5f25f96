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
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

import numpy as np

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
        self.built = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add(self, layer: Layer,
            inputs: Union[None, str, Sequence[str]] = None) -> Layer:
        """Append ``layer``, wired to ``inputs`` (default: previous layer,
        or ``input:0`` for the first).  Input refs are layer names or
        ``"input:<i>"``."""
        if self.built:
            raise RuntimeError("cannot add layers to a built network")
        if layer.name in self._by_name:
            raise ValueError(f"duplicate layer name {layer.name!r}")
        if inputs is None:
            inputs = [self._layers[-1].name] if self._layers else ["input:0"]
        elif isinstance(inputs, str):
            inputs = [inputs]
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
        """Materialise every layer's tensors (topological order = add order,
        which is topological by construction)."""
        if self.built:
            raise RuntimeError("network already built")
        rng = np.random.default_rng(rng) if not isinstance(
            rng, np.random.Generator) else rng
        shapes: dict[str, tuple] = {
            f"input:{i}": s for i, s in enumerate(self.input_shapes)
        }
        for layer in self._layers:
            parents = self._inputs_of[layer.name]
            in_shapes = [shapes[p] for p in parents]
            if isinstance(layer, Concatenate):
                out = layer.build(in_shapes, rng)
            else:
                if len(in_shapes) != 1:
                    raise ValueError(
                        f"{layer.name}: only Concatenate accepts multiple "
                        f"inputs"
                    )
                out = layer.build(in_shapes[0], rng)
            shapes[layer.name] = out
        self._live = self.backward_liveness()
        self.built = True
        return self

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
            trainable = getattr(layer, "TRAINABLE", None)
            live[layer.name] = any(
                trainable is None or p in trainable for p in layer.params
            ) or any(live.get(p, False) for p in self._inputs_of[layer.name])
        return live

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def forward(self, x, training: bool = False):
        """``x``: one array, or a sequence of arrays (multi-input)."""
        if not self.built:
            raise RuntimeError("network not built")
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

    def get_weights(self, copy: bool = True) -> dict[str, np.ndarray]:
        """Ordered ``{"layer.param": array}`` — copies by default, safe
        to mutate.  ``copy=False`` returns the live parameter arrays
        (zero-copy); the caller must not mutate them."""
        out: dict[str, np.ndarray] = {}
        for layer in self._layers:
            for pname, arr in layer.params.items():
                out[f"{layer.name}.{pname}"] = arr.copy() if copy else arr
        return out

    def set_weights(self, weights: dict[str, np.ndarray],
                    strict: bool = True) -> None:
        names = set()
        for layer in self._layers:
            for pname in layer.params:
                names.add(f"{layer.name}.{pname}")
        for key, arr in weights.items():
            if key not in names:
                if strict:
                    raise KeyError(f"no tensor named {key!r} in {self.name}")
                continue
            lname, pname = key.rsplit(".", 1)
            target = self._by_name[lname].params[pname]
            if target.shape != arr.shape:
                raise ValueError(
                    f"{key}: shape mismatch {arr.shape} vs {target.shape}"
                )
            self._by_name[lname].params[pname] = (
                np.asarray(arr, dtype=target.dtype).copy()
            )

    def num_parameters(self) -> int:
        return sum(l.num_parameters for l in self._layers)

    def trainable(self) -> Iterable[tuple[str, Layer, str]]:
        """Yield (tensor_name, layer, param_name) for trained tensors."""
        for layer in self._layers:
            trainable = getattr(layer, "TRAINABLE", None)
            for pname in layer.params:
                if trainable is not None and pname not in trainable:
                    continue
                yield f"{layer.name}.{pname}", layer, pname

    def summary(self) -> str:
        lines = [f"Network {self.name!r} — inputs {self.input_shapes}"]
        for layer in self._layers:
            lines.append(
                f"  {layer.name:<24} {type(layer).__name__:<12} "
                f"out={layer.output_shape} params={layer.num_parameters}"
            )
        lines.append(f"  total parameters: {self.num_parameters()}")
        return "\n".join(lines)

    def __repr__(self):
        state = "built" if self.built else "unbuilt"
        return (f"<Network {self.name} {state}: {len(self._layers)} layers, "
                f"{len(self.input_shapes)} input(s)>")
