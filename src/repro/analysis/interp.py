"""Abstract interpreter over architecture sequences.

:func:`analyze` symbolically executes a candidate's graph — shape and
dtype propagation, parameter-count and FLOP accounting — without
allocating a single tensor.  The interpreter dispatches on the op
``kind`` registered in :data:`repro.tensor.OP_METADATA`; each handler
mirrors the corresponding layer's ``_build`` semantics *exactly*,
including the adaptive conv/pool degradation paths, so ``report.ok``
is equivalent to "``space.build_network(arch_seq)`` succeeds".

This is the NAS loop's pre-flight gate substrate: strategies reject
statically invalid mutations before they reach an evaluator, and
``transfer.shapeseq`` derives LP/LCS shape sequences from the report
instead of instantiating networks.

Every handler returns a 5-tuple
``(output_shape | None, param_signature, num_params, flops, diags)``.
"""

from __future__ import annotations

from math import prod
from typing import Callable, Optional

from ..tensor import OP_METADATA, op_metadata
from .report import Diagnostic, GraphReport, LayerReport

_HANDLERS: dict[str, Callable] = {}


def register_handler(kind: str) -> Callable:
    """Register the shape/param/FLOP rule for an op ``kind`` (which must
    already have :data:`repro.tensor.OP_METADATA` metadata)."""
    op_metadata(kind)  # fail fast on unregistered kinds

    def deco(fn: Callable) -> Callable:
        _HANDLERS[kind] = fn
        return fn

    return deco


def _err(code: str, node: str, message: str) -> Diagnostic:
    return Diagnostic(code, node, message, severity="error")


def _fail(code: str, node: str, message: str):
    return None, (), 0, 0, [_err(code, node, message)]


# ----------------------------------------------------------------------
# per-kind rules (mirror repro.tensor.layers._build semantics)
# ----------------------------------------------------------------------
@register_handler("identity")
def _identity(op, node, shape):
    return shape, (), 0, 0, []


@register_handler("activation")
def _activation(op, node, shape):
    return shape, (), 0, prod(shape), []


@register_handler("dropout")
def _dropout(op, node, shape):
    return shape, (), 0, 0, []


@register_handler("flatten")
def _flatten(op, node, shape):
    return (prod(shape),), (), 0, 0, []


@register_handler("dense")
def _dense(op, node, shape):
    if len(shape) != 1:
        return _fail("shape-mismatch", node,
                     f"dense needs a flat input, got {shape}")
    units = op.units
    sig = ((shape[0], units), (units,))
    return (units,), sig, shape[0] * units + units, 2 * shape[0] * units, []


@register_handler("conv2d")
def _conv2d(op, node, shape):
    if len(shape) != 3:
        return _fail("shape-mismatch", node,
                     f"conv2d needs (H, W, C) input, got {shape}")
    h, w, c = shape
    k, f = op.kernel_size, op.filters
    padding = op.padding
    if padding == "valid" and (k > h or k > w):
        if not op.adaptive:
            return _fail("shape-mismatch", node,
                         f"valid {k}x{k} conv does not fit {h}x{w}")
        padding = "same"
    if padding == "same" and k % 2 == 0:
        return _fail("shape-mismatch", node,
                     f"same padding needs an odd kernel, got {k}")
    out = (h, w, f) if padding == "same" else (h - k + 1, w - k + 1, f)
    sig = ((k, k, c, f), (f,))
    flops = 2 * k * k * c * out[0] * out[1] * f
    return out, sig, k * k * c * f + f, flops, _check_spatial(node, out[:-1])


@register_handler("conv1d")
def _conv1d(op, node, shape):
    if len(shape) != 2:
        return _fail("shape-mismatch", node,
                     f"conv1d needs (L, C) input, got {shape}")
    length, c = shape
    k, f = op.kernel_size, op.filters
    padding = op.padding
    if padding == "valid" and k > length:
        if not op.adaptive:
            return _fail("shape-mismatch", node,
                         f"valid size-{k} conv does not fit L={length}")
        padding = "same"
    if padding == "same" and k % 2 == 0:
        return _fail("shape-mismatch", node,
                     f"same padding needs an odd kernel, got {k}")
    out = (length, f) if padding == "same" else (length - k + 1, f)
    sig = ((k, c, f), (f,))
    flops = 2 * k * c * out[0] * f
    return out, sig, k * c * f + f, flops, _check_spatial(node, out[:-1])


def _pool(op, node, shape, ndim):
    if len(shape) != ndim:
        return _fail("shape-mismatch", node,
                     f"pooling needs rank-{ndim} input, got {shape}")
    if op.stride != op.pool_size:
        return _fail("bad-op", node,
                     f"only stride == pool_size pooling is supported "
                     f"(pool {op.pool_size}, stride {op.stride})")
    p = op.pool_size
    spatial = shape[:-1]
    if any(p > s for s in spatial):
        if not op.adaptive:
            return _fail("shape-mismatch", node,
                         f"pool {p} larger than input {spatial}")
        return shape, (), 0, 0, []       # adaptive: no-op passthrough
    out = tuple(s // p for s in spatial) + (shape[-1],)
    flops = prod(out) * p ** len(spatial)
    return out, (), 0, flops, _check_spatial(node, out[:-1])


@register_handler("maxpool2d")
@register_handler("avgpool2d")
def _pool2d(op, node, shape):
    return _pool(op, node, shape, 3)


@register_handler("maxpool1d")
@register_handler("avgpool1d")
def _pool1d(op, node, shape):
    return _pool(op, node, shape, 2)


@register_handler("batchnorm")
def _batchnorm(op, node, shape):
    if not shape:
        return _fail("shape-mismatch", node,
                     "batchnorm needs a non-scalar input")
    c = shape[-1]
    sig = ((c,), (c,), (c,), (c,))
    return shape, sig, 4 * c, 2 * prod(shape), []


def _concat(node, in_shapes):
    shapes = [tuple(s) for s in in_shapes]
    if any(len(s) != 1 for s in shapes):
        return _fail("shape-mismatch", node,
                     f"concat needs flat inputs, got {shapes}")
    return (sum(s[0] for s in shapes),), (), 0, 0, []


def _check_spatial(node: str, spatial: tuple) -> list[Diagnostic]:
    if any(s <= 0 for s in spatial):
        return [_err("spatial-collapse", node,
                     f"spatial extent collapsed to {spatial}")]
    return []


# ----------------------------------------------------------------------
# the interpreter
# ----------------------------------------------------------------------
def analyze(space, arch_seq, *, param_budget: Optional[int] = None,
            input_dtype: str = "float32") -> GraphReport:
    """Statically analyze candidate ``arch_seq`` of ``space``.

    Returns a :class:`GraphReport` with per-layer output shapes, dtypes,
    parameter signatures/counts, FLOP estimates, and diagnostics.
    ``param_budget`` (if given) adds a ``param-budget`` error when the
    candidate's total parameter count exceeds it.  Never instantiates a
    network; raises ``ValueError`` only for malformed sequences (wrong
    length / out-of-range choice), mirroring ``space.validate_seq``.
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

        if any(s is None for s in in_shapes):
            # upstream failure already reported; skip inference here
            out, sig, params, flops, node_diags = None, (), 0, 0, []
        elif op.kind == "concat":
            out, sig, params, flops, node_diags = _concat(node, in_shapes)
        elif op.kind not in _HANDLERS:
            out, sig, params, flops, node_diags = _fail(
                "unknown-op", node,
                f"no analysis rule for op kind {op.kind!r}")
        elif len(in_shapes) != 1:
            out, sig, params, flops, node_diags = _fail(
                "shape-mismatch", node,
                f"only concat accepts multiple inputs, got {len(in_shapes)}")
        else:
            out, sig, params, flops, node_diags = _HANDLERS[op.kind](
                op, node, in_shapes[0])

        diags.extend(node_diags)
        shapes[node] = out
        dtypes[node] = dtype
        layers.append(LayerReport(
            node=node, kind=op.kind, description=op.describe(),
            input_shapes=in_shapes, output_shape=out,
            dtype=dtype if out is not None else None,
            signature=sig, num_params=params, flops=flops,
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


#: kinds with analysis rules — kept in lockstep with OP_METADATA
ANALYZED_KINDS = tuple(sorted(set(_HANDLERS) | {"concat"}))
assert set(ANALYZED_KINDS) == set(OP_METADATA), (
    "analysis rules out of sync with repro.tensor.OP_METADATA"
)
