"""Structured results of static graph analysis.

A :class:`GraphReport` is what :func:`repro.analysis.analyze` returns:
one :class:`LayerReport` per node of the candidate graph plus the
collected :class:`Diagnostic` list.  ``report.ok`` means no
error-severity diagnostic — the candidate is guaranteed to build and
run (the analyzer calls each layer's own ``infer``, the shape rule
``Layer.build`` runs; the cross-validation tests pin that).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

#: Diagnostic severities, in increasing order of badness.
SEVERITIES = ("info", "warning", "error")

Signature = Tuple[tuple, ...]  # tuple of tensor shape tuples


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding, attached to a graph node.

    ``code`` is a stable kebab-case identifier (``shape-mismatch``,
    ``param-budget``, ``float64-promotion``, ``dead-node``,
    ``unused-input``); error severity means the candidate cannot (or
    must not) be instantiated.
    """

    code: str
    node: str
    message: str
    severity: str = "error"

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    def __str__(self) -> str:
        return f"[{self.severity}] {self.node}: {self.code}: {self.message}"


@dataclass(frozen=True)
class LayerReport:
    """Inferred facts about one node's chosen op."""

    node: str
    kind: str
    description: str
    input_shapes: tuple              # tuple of input shape tuples
    output_shape: Optional[tuple]    # None when inference failed upstream
    dtype: Optional[str]
    signature: Signature             # parameter-tensor shapes, decl. order
    num_params: int

    @property
    def parameterized(self) -> bool:
        return bool(self.signature)


@dataclass(frozen=True)
class GraphReport:
    """Full static analysis of one candidate architecture."""

    space_name: str
    arch_seq: tuple
    layers: Tuple[LayerReport, ...]
    diagnostics: Tuple[Diagnostic, ...] = ()
    input_shapes: tuple = ()
    input_dtype: str = "float32"

    # ------------------------------------------------------------------
    # verdict
    # ------------------------------------------------------------------
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    @property
    def ok(self) -> bool:
        """No error-severity diagnostics: the candidate builds and runs."""
        return not self.errors()

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    @property
    def total_params(self) -> int:
        return sum(layer.num_params for layer in self.layers)

    @property
    def output_shape(self) -> Optional[tuple]:
        return self.layers[-1].output_shape if self.layers else None

    @property
    def output_dtype(self) -> Optional[str]:
        return self.layers[-1].dtype if self.layers else None

    @property
    def shape_sequence(self) -> Tuple[Signature, ...]:
        """The candidate's layer-level shape sequence (the LP/LCS
        matching substrate) — parameterized layers only, in topological
        order; identical to
        ``shape_sequence(space.build_network(arch_seq))``."""
        self._require_ok("shape_sequence")
        return tuple(
            layer.signature for layer in self.layers if layer.parameterized
        )

    @property
    def signature_key(self) -> str:
        """Stable digest of the shape sequence — a cache key for LP/LCS
        matching and checkpoint-compatibility lookups: two candidates
        with equal keys have identical shape sequences."""
        self._require_ok("signature_key")
        payload = repr(self.shape_sequence).encode()
        return hashlib.sha1(payload).hexdigest()[:16]

    def _require_ok(self, what: str) -> None:
        if not self.ok:
            raise ValueError(
                f"{what} undefined for a statically invalid candidate: "
                + "; ".join(str(d) for d in self.errors())
            )

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def summary(self) -> str:
        """Per-layer table plus totals and diagnostics, one line each."""
        lines = [
            f"GraphReport {self.space_name}[{','.join(map(str, self.arch_seq))}]"
            f" — inputs {self.input_shapes} ({self.input_dtype})"
        ]
        for layer in self.layers:
            lines.append(
                f"  {layer.node:<20} {layer.description:<28} "
                f"out={layer.output_shape} params={layer.num_params}"
            )
        lines.append(f"  total: params={self.total_params}")
        for diag in self.diagnostics:
            lines.append(f"  {diag}")
        return "\n".join(lines)

    def __iter__(self) -> Iterator[LayerReport]:
        return iter(self.layers)
