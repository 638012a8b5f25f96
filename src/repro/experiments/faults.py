"""Ablation: does the LCS speedup survive real failure rates?

The paper's 1.4–1.5× estimation-phase speedups (Fig. 10, Table III) are
measured on clean runs.  Long multi-GPU campaigns are not clean: workers
crash and checkpoints corrupt.  This ablation re-measures the
baseline-vs-LCS makespan ratio under seeded faults, on the one search
loop: crashes come from a :class:`repro.cluster.ChaosEvaluator` around
the simulated cluster, retried under a bounded :class:`RetryPolicy`
whose backoff waits on the virtual clock, and corrupt checkpoints from
a :class:`TruncatingStore` whose payloads are really cut short on disk,
so a provider read hits the quarantine path.  The transfer scheme has
strictly more surface for faults (it reads and writes checkpoints), so
the question is whether its advantage erodes.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass

import numpy as np

from ..checkpoint import CheckpointStore
from ..cluster import ChaosEvaluator, RetryPolicy, SimulatedCluster, run_search
from ..nas import RegularizedEvolution
from .report import pct, text_table

#: (crash_prob, corrupt_prob) grid — 0/0 is the paper's clean setting
FAULT_RATES = ((0.0, 0.0), (0.1, 0.1), (0.25, 0.2))

#: every run's retry budget: two retries, 2 s then 4 s of virtual backoff
RETRY = RetryPolicy(max_attempts=3, base_delay=2.0, jitter=0.0)


class TruncatingStore(CheckpointStore):
    """A store on a failing disk: each saved payload is truncated to a
    third with probability ``corrupt_prob``, drawn from the store's own
    seeded rng.  Saves land one at a time in submission order on the
    checkpoint writer thread, so a seeded run corrupts the same keys
    every time; ``corrupted`` names them in order."""

    def __init__(self, root, corrupt_prob: float, seed: int = 0):
        super().__init__(root)
        self.corrupt_prob = corrupt_prob
        self.rng = np.random.default_rng((seed, 0xFA17))
        self.corrupted: list[str] = []

    def save(self, key, weights, meta=None):
        info = super().save(key, weights, meta)
        if float(self.rng.uniform()) < self.corrupt_prob:
            blob = info.path.read_bytes()
            info.path.write_bytes(blob[:max(1, len(blob) // 3)])
            self.corrupted.append(key)
        return info


def fault_search(ctx, app: str, scheme: str, crash_prob: float,
                 corrupt_prob: float, seed: int = 7):
    """One seeded search of the grid on ``ctx.default_gpus`` simulated
    GPUs; returns ``(trace, store)`` (no store for the baseline, which
    does not checkpoint)."""
    problem = ctx.problem(app)
    store = None
    if scheme != "baseline":
        root = ctx.workdir / "ablation_faults" / \
            f"{app}_{scheme}_c{crash_prob}_k{corrupt_prob}"
        shutil.rmtree(root, ignore_errors=True)
        store = TruncatingStore(root, corrupt_prob, seed=seed)
    strategy = RegularizedEvolution(
        problem.space, rng=seed,
        population_size=ctx.config.population_size,
        sample_size=ctx.config.sample_size)
    evaluator = ChaosEvaluator(SimulatedCluster(num_gpus=ctx.default_gpus),
                               crash_prob=crash_prob, seed=seed)
    trace = run_search(problem, strategy, ctx.config.num_candidates,
                       scheme=scheme, store=store, evaluator=evaluator,
                       seed=seed, retry=RETRY)
    return trace, store


@dataclass(frozen=True)
class FaultRow:
    app: str
    crash_prob: float
    corrupt_prob: float
    scheme: str
    makespan: float
    ok_fraction: float
    retries: int
    failed: int
    quarantined: int


@dataclass(frozen=True)
class FaultResult:
    rows: tuple

    def row(self, app: str, crash_prob: float, scheme: str) -> FaultRow:
        for r in self.rows:
            if (r.app == app and r.crash_prob == crash_prob
                    and r.scheme == scheme):
                return r
        raise KeyError((app, crash_prob, scheme))

    def speedup(self, app: str, crash_prob: float) -> float:
        """baseline/LCS makespan ratio at one fault rate (>1 = LCS wins)."""
        lcs = self.row(app, crash_prob, "lcs").makespan
        base = self.row(app, crash_prob, "baseline").makespan
        return base / lcs if lcs else float("nan")


def run_ablation_faults(ctx, apps, rates=FAULT_RATES) -> FaultResult:
    rows = []
    for app in apps:
        for crash_prob, corrupt_prob in rates:
            for scheme in ("baseline", "lcs"):
                trace, _ = fault_search(ctx, app, scheme, crash_prob,
                                        corrupt_prob)
                fs = trace.fault_stats or {}
                ok = trace.ok_records()
                rows.append(FaultRow(
                    app=app, crash_prob=crash_prob,
                    corrupt_prob=corrupt_prob, scheme=scheme,
                    makespan=trace.makespan,
                    ok_fraction=len(ok) / len(trace) if len(trace) else 0.0,
                    retries=int(fs.get("retries", 0)),
                    failed=int(fs.get("failed_records", 0)),
                    quarantined=int(fs.get("quarantined", 0)),
                ))
    return FaultResult(rows=tuple(rows))


def format_ablation_faults(result: FaultResult) -> str:
    table = text_table(
        "Ablation: estimation-phase speedup under injected faults "
        "(virtual clock, bounded retry)",
        ["App", "crash p", "corrupt p", "Scheme", "Makespan(s)",
         "OK frac", "Retries", "Failed", "Quarantined"],
        [
            [r.app, f"{r.crash_prob:.2f}", f"{r.corrupt_prob:.2f}",
             r.scheme, f"{r.makespan:.1f}", pct(r.ok_fraction, 0),
             r.retries, r.failed, r.quarantined]
            for r in result.rows
        ],
    )
    apps, rates = [], []
    for r in result.rows:
        if r.app not in apps:
            apps.append(r.app)
        if r.crash_prob not in rates:
            rates.append(r.crash_prob)
    lines = ["", "baseline/LCS makespan speedup (>1 = LCS still wins):"]
    for app in apps:
        cells = ", ".join(
            f"crash={rate:.2f}: {result.speedup(app, rate):.2f}x"
            for rate in rates)
        lines.append(f"  {app}: {cells}")
    return table + "\n" + "\n".join(lines)
