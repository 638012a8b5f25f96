"""Static analysis of candidate architectures.

:func:`analyze` walks a candidate's chosen ops in graph order and asks
each one's layer for its shapes — ``layer.infer(input_shape)``, the same
rule ``Layer.build`` runs — without allocating a single tensor.  A
``BuildError`` becomes a ``shape-mismatch`` diagnostic, so ``report.ok``
is equivalent to "``space.build_network(arch_seq)`` succeeds".  The
analyzer adds only graph-level checks of its own: fan-in into a
non-concat node, dtype promotion, a parameter budget and reachability.

This is the NAS loop's pre-flight gate substrate: strategies reject
statically invalid mutations before they reach an evaluator, and
``transfer.shapeseq`` derives LP/LCS shape sequences from the report
instead of instantiating networks.
"""

from __future__ import annotations

from math import prod
from typing import Optional

from ..tensor import BuildError, Concatenate
from .report import Diagnostic, GraphReport, LayerReport


def _err(code: str, node: str, message: str) -> Diagnostic:
    return Diagnostic(code, node, message, severity="error")


def _infer(node: str, op, in_shapes: tuple):
    """``(output_shape | None, {param: shape}, diagnostics)`` of one node."""
    if any(s is None for s in in_shapes):
        return None, {}, []      # upstream failure already reported
    layer = op.to_layer(op.layer_name(node))
    if isinstance(layer, Concatenate):
        input_shape = in_shapes
    elif len(in_shapes) == 1:
        input_shape = in_shapes[0]
    else:
        return None, {}, [_err(
            "shape-mismatch", node,
            f"only concat accepts multiple inputs, got {len(in_shapes)}")]
    try:
        out, params = layer.infer(input_shape)
    except BuildError as exc:
        return None, {}, [_err("shape-mismatch", node, str(exc))]
    return out, params, []


def analyze(space, arch_seq, *, param_budget: Optional[int] = None,
            input_dtype: str = "float32") -> GraphReport:
    """Statically analyze candidate ``arch_seq`` of ``space``.

    Returns a :class:`GraphReport` with per-layer output shapes, dtypes,
    parameter signatures/counts, and diagnostics.  ``param_budget`` (if
    given) adds a ``param-budget`` error when the candidate's total
    parameter count exceeds it.  Never instantiates a network; raises
    ``ValueError`` only for malformed sequences (wrong length /
    out-of-range choice), mirroring ``space.validate_seq``.
    """
    if input_dtype not in ("float32", "float64"):
        raise ValueError(f"unsupported input dtype {input_dtype!r}")
    seq = space.validate_seq(arch_seq)
    shapes: dict[str, Optional[tuple]] = {
        f"input:{i}": tuple(s) for i, s in enumerate(space.input_shapes)
    }
    dtypes: dict[str, str] = {k: input_dtype for k in shapes}
    consumed: set[str] = set()
    layers: list[LayerReport] = []
    diags: list[Diagnostic] = []
    if input_dtype == "float64":
        # parameters are float32; float64 activations win every promotion
        diags.append(Diagnostic(
            "float64-promotion", "input:0",
            "float64 inputs promote every downstream activation to "
            "float64 (2x matmul cost; see DESIGN.md dtype discipline)",
            severity="warning",
        ))

    chosen = space.chosen_ops(seq)
    last_node = chosen[-1][0] if chosen else None

    for node, parents, op in chosen:
        consumed.update(parents)
        in_shapes = tuple(shapes[p] for p in parents)
        dtype = "float64" if any(
            dtypes[p] == "float64" for p in parents) else "float32"
        out, params, node_diags = _infer(node, op, in_shapes)
        diags.extend(node_diags)
        shapes[node] = out
        dtypes[node] = dtype
        layers.append(LayerReport(
            node=node, kind=op.kind, description=op.describe(),
            input_shapes=in_shapes, output_shape=out,
            dtype=dtype if out is not None else None,
            signature=tuple(params.values()),
            num_params=sum(prod(s) for s in params.values()),
        ))

    diags.extend(_reachability(chosen, consumed, last_node,
                               len(space.input_shapes)))
    if param_budget is not None:
        total = sum(layer.num_params for layer in layers)
        if total > param_budget:
            diags.append(_err(
                "param-budget", last_node or "?",
                f"{total} parameters exceed the budget of {param_budget}"))

    return GraphReport(
        space_name=space.name, arch_seq=seq, layers=tuple(layers),
        diagnostics=tuple(diags),
        input_shapes=tuple(tuple(s) for s in space.input_shapes),
        input_dtype=input_dtype,
    )


def _reachability(chosen, consumed, last_node, num_inputs):
    """Dead nodes (output never consumed downstream of the graph output)
    and unused inputs.  ``Network.forward`` still *executes* dead nodes,
    so they waste compute and parameters — warning severity."""
    diags = []
    parents_of = {node: parents for node, parents, _ in chosen}
    reachable: set[str] = set()
    stack = [last_node] if last_node else []
    while stack:
        ref = stack.pop()
        if ref in reachable:
            continue
        reachable.add(ref)
        stack.extend(parents_of.get(ref, ()))
    for node, _, _ in chosen:
        if node not in reachable:
            diags.append(Diagnostic(
                "dead-node", node,
                "node output never reaches the graph output (wasted "
                "compute and parameters)", severity="warning"))
    for i in range(num_inputs):
        ref = f"input:{i}"
        if ref not in consumed:
            diags.append(Diagnostic(
                "unused-input", ref,
                "network input is never consumed", severity="warning"))
    return diags
