"""Shape sequences (the paper's Figure 3 substrate).

A model's *shape sequence* is the ordered list of its parameterized
layers' signatures, one element per layer, where a signature is the tuple
of that layer's tensor shapes — e.g. a conv layer contributes
``((k, k, Cin, F), (F,))``, a batch-norm ``((C,), (C,), (C,), (C,))``.

DESIGN.md records why the sequence is layer-level rather than raw-tensor
level: matching whole layers keeps biases and batch-norm statistics
attached to their kernels, and stops the ubiquitous head-bias shape from
making every pair "shareable" (which would collapse Figure 2 to 100%).

:func:`arch_shape_sequence` derives the sequence *statically* from an
architecture sequence — it asks each chosen op's layer for its shapes
through ``layer.infer``, the rule ``Layer.build`` runs, with no network
instantiation and no tensor allocation — and LRU-caches the result, so
LP/LCS matching inside the search loop never pays a build.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping

import numpy as np

from ..tensor import BuildError, Concatenate

Signature = tuple  # tuple of shape tuples
ShapeSequence = tuple  # tuple of Signatures


def shape_sequence(model_or_weights) -> ShapeSequence:
    """Shape sequence of a built :class:`~repro.tensor.network.Network`
    or of an ordered ``{"layer.param": array}`` weights mapping."""
    if hasattr(model_or_weights, "parameterized_layers"):
        return tuple(
            layer.signature() for layer in model_or_weights.parameterized_layers()
        )
    return tuple(sig for _, sig in group_layers(model_or_weights))


def arch_shape_sequence(space, arch_seq) -> ShapeSequence:
    """Shape sequence of candidate ``arch_seq``, statically inferred.

    Identical to ``shape_sequence(space.build_network(arch_seq))`` (the
    cross-validation tests pin this) but never instantiates the network.
    Raises ``ValueError`` for a malformed sequence and when the
    candidate is statically invalid: the architectures for which
    ``build_network`` raises ``BuildError``, and a non-concat node with
    several inputs.  Cached by ``(space, arch_seq)`` identity.
    """
    return _arch_shape_sequence(space, space.validate_seq(arch_seq))


@lru_cache(maxsize=4096)
def _arch_shape_sequence(space, arch_seq: tuple) -> ShapeSequence:
    shapes = {f"input:{i}": tuple(s) for i, s in enumerate(space.input_shapes)}
    sequence: list[Signature] = []
    for node, parents, op in space.chosen_ops(arch_seq):
        layer = op.to_layer(op.layer_name(node))
        in_shapes = tuple(shapes[p] for p in parents)
        if isinstance(layer, Concatenate):
            input_shape = in_shapes
        elif len(in_shapes) == 1:
            input_shape = in_shapes[0]
        else:
            raise ValueError(
                f"statically invalid architecture {arch_seq}: {node}: only "
                f"concat accepts multiple inputs, got {len(in_shapes)}")
        try:
            shapes[node], params = layer.infer(input_shape)
        except BuildError as exc:
            raise ValueError(
                f"statically invalid architecture {arch_seq}: {node}: {exc}"
            ) from None
        if params:
            sequence.append(tuple(params.values()))
    return tuple(sequence)


def group_layers(weights: Mapping[str, np.ndarray]
                 ) -> list[tuple[list[str], Signature]]:
    """Group an ordered ``{"layer.param": array}`` mapping back into
    layers: consecutive entries sharing the ``layer`` prefix.

    Returns ``[(tensor_names, signature), ...]`` in sequence order.
    """
    groups: list[tuple[list[str], Signature]] = []
    current_prefix = None
    names: list[str] = []
    shapes: list[tuple] = []
    for name, arr in weights.items():
        prefix = name.rsplit(".", 1)[0]
        if prefix != current_prefix:
            if names:
                groups.append((names, tuple(shapes)))
            current_prefix, names, shapes = prefix, [], []
        names.append(name)
        shapes.append(tuple(np.asarray(arr).shape))
    if names:
        groups.append((names, tuple(shapes)))
    return groups
