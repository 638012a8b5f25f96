"""Static analysis for candidate graphs and repository invariants.

Two halves:

- **Graph analyzer** (:func:`analyze`): shape/dtype propagation,
  parameter accounting and structural diagnostics over architecture
  sequences, asking each layer's own ``infer`` for its shapes.
  :class:`PreflightGate` wraps it as the NAS loop's free validity
  check.
- **Invariant linter** (:mod:`repro.analysis.lint`, run as
  ``python -m repro.analysis.lint src/repro``): AST rules R001-R008
  enforcing the repo's dtype discipline, frozen reference kernels,
  allocation-free optimizer steps, reference-kernel import hygiene,
  view-copy bans in the supernet transfer path, and — via the
  whole-program concurrency analyzer
  (:mod:`repro.analysis.concurrency`) — inferred lock guards matching
  every ``_GUARDED_ATTRS`` declaration and *every lock is a leaf* (no
  lock acquired while another is held).  The companion runtime
  sanitizer (:mod:`repro.analysis.lockcheck`) raises on any nested
  acquire of a lock built by :func:`~repro.analysis.lockcheck.make_lock`
  when ``REPRO_LOCKCHECK=1``.
"""

from .gate import GateStats, PreflightGate
from .interp import analyze
from .report import Diagnostic, GraphReport, LayerReport
from .zerocost import (
    SCORERS,
    GradNormScorer,
    NTKTraceScorer,
    SynflowScorer,
    ZeroCostGate,
    ZeroCostScorer,
    get_scorer,
)

__all__ = [
    "analyze",
    "GraphReport", "LayerReport", "Diagnostic",
    "PreflightGate", "GateStats",
    "ZeroCostScorer", "GradNormScorer", "SynflowScorer", "NTKTraceScorer",
    "SCORERS", "get_scorer", "ZeroCostGate",
]
