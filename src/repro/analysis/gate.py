"""Pre-flight gate: static screening of NAS candidates.

Strategies call :meth:`PreflightGate.admits` on every proposal before
it is enqueued; statically invalid candidates (shape mismatches,
impossible geometry, parameter-budget blowups) are rejected *for free*
— zero tensor allocations, zero forward passes — and the strategy
resamples.  Rejections are tallied in :class:`GateStats`, which
``run_search`` copies onto the trace so search-efficiency accounting
can separate "statically rejected" from "evaluated and failed".
Every screened candidate is booked exactly once:
``checked == admitted + rejected``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from typing import Optional

from .interp import analyze
from .report import GraphReport


@dataclass
class GateStats:
    """What the gate screened: ``checked == admitted + rejected``.
    ``by_code`` counts rejection reasons by diagnostic code (a candidate
    with several errors counts once per distinct code)."""

    checked: int = 0
    admitted: int = 0
    rejected: int = 0
    by_code: dict = field(default_factory=dict)

    @property
    def rejection_rate(self) -> float:
        return self.rejected / self.checked if self.checked else 0.0

    def as_dict(self) -> dict:
        return asdict(self)


class PreflightGate:
    """Analyze-and-cache wrapper around :func:`repro.analysis.analyze`.

    ``param_budget`` forwards to the analyzer; ``reject_warnings=True``
    additionally rejects candidates with warning-severity diagnostics
    (dead nodes, float64 promotion).  Reports are LRU-cached by
    architecture sequence, so repeated proposals (evolution revisiting a
    neighbourhood) pay for analysis once.
    """

    def __init__(self, space, *, param_budget: Optional[int] = None,
                 reject_warnings: bool = False, cache_size: int = 4096):
        self.space = space
        self.param_budget = param_budget
        self.reject_warnings = reject_warnings
        self.cache_size = cache_size
        self.stats = GateStats()
        self._cache: OrderedDict = OrderedDict()

    def analyze(self, arch_seq) -> GraphReport:
        """Cached static analysis of ``arch_seq`` (no stats update)."""
        seq = self.space.validate_seq(arch_seq)
        report = self._cache.get(seq)
        if report is not None:
            self._cache.move_to_end(seq)
            return report
        report = analyze(self.space, seq, param_budget=self.param_budget)
        self._cache[seq] = report
        if len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)
        return report

    def admits(self, arch_seq) -> bool:
        """True when ``arch_seq`` is statically valid; updates stats."""
        report = self.analyze(arch_seq)
        rejecting = report.errors()
        if self.reject_warnings:
            rejecting = rejecting + report.warnings()
        self.stats.checked += 1
        if rejecting:
            self.stats.rejected += 1
            for code in {d.code for d in rejecting}:
                self.stats.by_code[code] = self.stats.by_code.get(code, 0) + 1
            return False
        self.stats.admitted += 1
        return True

    def __repr__(self) -> str:
        return (f"<PreflightGate {self.space.name}: "
                f"{self.stats.rejected}/{self.stats.checked} rejected>")
