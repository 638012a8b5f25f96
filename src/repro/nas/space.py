"""Search spaces: graphs of variable nodes over operation choices.

A :class:`SearchSpace` is an ordered list of *nodes*; each node is
either **fixed** (always the same operation) or **variable** (one of a
list of operation choices).  An architecture is the sequence of chosen
indices over the variable nodes, in insertion order — the paper's
``arch_seq``.  A node's parents must already exist when it is added,
so insertion order is a topological order and the space is acyclic by
construction.

``build_network(arch_seq, rng)`` materialises a concrete
:class:`repro.tensor.Network`; strict operations raise
:class:`repro.tensor.BuildError` for impossible geometry (the NAS
estimation failure path), while ``adaptive=True`` operations degrade
gracefully (DESIGN.md "Adaptive conv/pool guards").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from ..tensor import Network
from .operations import Op

ArchSeq = tuple


@dataclass
class _Node:
    name: str
    choices: list = field(default_factory=list)  # [Op, ...]; len 1 if fixed
    variable: bool = False
    parents: list = field(default_factory=list)  # node names or "input:i"


class SearchSpace:
    def __init__(self, name: str, input_shape):
        """``input_shape``: one shape tuple, or a sequence of shape tuples
        for multi-input spaces (shapes exclude the batch axis)."""
        self.name = name
        if input_shape and isinstance(input_shape[0], (tuple, list)):
            self.input_shapes = tuple(tuple(s) for s in input_shape)
        else:
            self.input_shapes = (tuple(input_shape),)
        self._nodes: list[_Node] = []
        self._by_name: dict[str, _Node] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _resolve_after(self, after) -> list[str]:
        if after is None:
            after = self._nodes[-1].name if self._nodes else "input:0"
        if isinstance(after, str):
            after = [after]
        refs = []
        for ref in after:
            if ref.startswith("input:"):
                idx = int(ref.split(":", 1)[1])
                if idx >= len(self.input_shapes):
                    raise ValueError(f"no such input {ref!r}")
                refs.append(ref)
            elif ref in self._by_name:
                refs.append(ref)
            else:
                raise ValueError(f"unknown node {ref!r}")
        return refs

    def _add(self, node: _Node, after) -> _Node:
        if node.name in self._by_name:
            raise ValueError(f"duplicate node name {node.name!r}")
        for op in node.choices:
            # a malformed op raises ValueError here, not once per candidate
            op.to_layer(op.layer_name(node.name))
        node.parents = self._resolve_after(after)
        self._nodes.append(node)
        self._by_name[node.name] = node
        return node

    def add_variable(self, name: str, choices: Sequence[Op],
                     after: Union[None, str, Sequence[str]] = None) -> str:
        """A variable node with >= 2 operation choices; returns its name."""
        choices = list(choices)
        if len(choices) < 2:
            raise ValueError(f"variable node {name!r} needs >= 2 choices")
        self._add(_Node(name, choices, variable=True), after)
        return name

    def add_fixed(self, op: Op, name: str,
                  after: Union[None, str, Sequence[str]] = None) -> str:
        """A fixed node (always ``op``); returns its name."""
        self._add(_Node(name, [op], variable=False), after)
        return name

    # ------------------------------------------------------------------
    # architecture sequences
    # ------------------------------------------------------------------
    @property
    def variable_nodes(self) -> list[str]:
        return [n.name for n in self._nodes if n.variable]

    @property
    def num_variable_nodes(self) -> int:
        return sum(1 for n in self._nodes if n.variable)

    @property
    def size(self) -> int:
        """Number of candidate architectures in the space."""
        size = 1
        for n in self._nodes:
            if n.variable:
                size *= len(n.choices)
        return size

    def choice_counts(self) -> tuple:
        return tuple(len(n.choices) for n in self._nodes if n.variable)

    def validate_seq(self, arch_seq) -> ArchSeq:
        counts = self.choice_counts()
        seq = tuple(int(c) for c in arch_seq)
        if len(seq) != len(counts):
            raise ValueError(
                f"arch_seq length {len(seq)} != {len(counts)} variable nodes"
            )
        for i, (c, k) in enumerate(zip(seq, counts)):
            if not 0 <= c < k:
                raise ValueError(
                    f"arch_seq[{i}] = {c} out of range [0, {k})"
                )
        return seq

    def sample(self, rng=None) -> ArchSeq:
        rng = np.random.default_rng(rng) if not isinstance(
            rng, np.random.Generator) else rng
        return tuple(int(rng.integers(k)) for k in self.choice_counts())

    def mutate(self, arch_seq, rng=None, num_mutations: int = 1) -> ArchSeq:
        """Algorithm 1's mutation: change ``num_mutations`` distinct
        variable nodes to a *different* choice (d = num_mutations)."""
        rng = np.random.default_rng(rng) if not isinstance(
            rng, np.random.Generator) else rng
        seq = list(self.validate_seq(arch_seq))
        counts = self.choice_counts()
        mutable = [i for i, k in enumerate(counts) if k > 1]
        k = min(num_mutations, len(mutable))
        for i in rng.choice(len(mutable), size=k, replace=False):
            pos = mutable[int(i)]
            choices = [c for c in range(counts[pos]) if c != seq[pos]]
            seq[pos] = int(choices[int(rng.integers(len(choices)))])
        return tuple(seq)

    def distance(self, a, b) -> int:
        """Architecture distance d: number of differing variable choices."""
        a, b = self.validate_seq(a), self.validate_seq(b)
        return int(sum(x != y for x, y in zip(a, b)))

    # ------------------------------------------------------------------
    # materialisation
    # ------------------------------------------------------------------
    def _chosen_ops(self, arch_seq) -> list[tuple[_Node, Op]]:
        seq = self.validate_seq(arch_seq)
        out = []
        it = iter(seq)
        for node in self._nodes:
            op = node.choices[next(it)] if node.variable else node.choices[0]
            out.append((node, op))
        return out

    def chosen_ops(self, arch_seq) -> list[tuple[str, tuple, Op]]:
        """``(node_name, parent_refs, chosen_op)`` per node, in the
        topological (insertion) order ``build_network`` materialises —
        the substrate :func:`repro.transfer.arch_shape_sequence` walks."""
        return [
            (node.name, tuple(node.parents), op)
            for node, op in self._chosen_ops(arch_seq)
        ]

    def build_network(self, arch_seq, rng=None, name: Optional[str] = None
                      ) -> Network:
        """Instantiate and build the candidate network for ``arch_seq``."""
        net = Network(
            self.input_shapes if len(self.input_shapes) > 1
            else self.input_shapes[0],
            name or f"{self.name}[{','.join(map(str, arch_seq))}]",
        )
        layer_of: dict[str, str] = {}
        for node, op in self._chosen_ops(arch_seq):
            layer = op.to_layer(op.layer_name(node.name))
            inputs = [
                layer_of.get(p, p) for p in node.parents
            ]
            net.add(layer, inputs=inputs)
            layer_of[node.name] = layer.name
        return net.build(rng)

    def describe(self, arch_seq) -> list[str]:
        """One line per node: ``name: chosen operation``."""
        lines = []
        for node, op in self._chosen_ops(arch_seq):
            tag = "" if node.variable else " (fixed)"
            lines.append(f"{node.name}: {op.describe()}{tag}")
        return lines
