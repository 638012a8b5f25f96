"""Ablation studies (extensions beyond the paper; see DESIGN.md).

* mutation distance — why Algorithm 1 mutates exactly one node;
* exact vs partial-shape transfer — why the paper's exact-shape rule is
  a sound default;
* provider policies — what non-evolutionary strategies need instead of
  the parent-as-provider shortcut.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..checkpoint import CheckpointStore
from ..cluster import run_search
from ..nas import RandomSearch, estimate_candidate
from .report import pct, text_table

N_PARENTS = 8


# ---------------------------------------------------------------------------
# mutation distance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistanceRow:
    app: str
    distance: int
    n_children: int
    mean_score: float
    mean_coverage: float


@dataclass(frozen=True)
class DistanceResult:
    rows: tuple

    def row(self, app: str, distance: int) -> DistanceRow:
        for r in self.rows:
            if r.app == app and r.distance == distance:
                return r
        raise KeyError((app, distance))


def run_ablation_distance(ctx, apps, distances) -> DistanceResult:
    rows = []
    for app in apps:
        problem = ctx.problem(app)
        space = problem.space
        rng = np.random.default_rng(5)
        parents = []
        while len(parents) < N_PARENTS:
            seq = space.sample(rng)
            est = estimate_candidate(problem, seq, seed=len(parents),
                                     keep_weights=True)
            if est.ok:
                parents.append((seq, est.weights))
        for d in distances:
            scores, coverages = [], []
            for i, (seq, weights) in enumerate(parents):
                child = space.mutate(seq, rng, num_mutations=d)
                est = estimate_candidate(
                    problem, child, seed=100 + i,
                    provider_weights=weights, matcher="lcs")
                if est.ok:
                    scores.append(est.score)
                    coverages.append(est.transfer_stats.coverage)
            rows.append(DistanceRow(
                app=app, distance=d, n_children=len(scores),
                mean_score=float(np.mean(scores)),
                mean_coverage=float(np.mean(coverages)),
            ))
    return DistanceResult(rows=tuple(rows))


def format_ablation_distance(result: DistanceResult) -> str:
    return text_table(
        "Ablation: mutation distance vs transfer value (LCS)",
        ["App", "Mutations/child (=d)", "Mean child score",
         "Transfer coverage"],
        [
            [r.app, r.distance, f"{r.mean_score:.3f}",
             pct(r.mean_coverage, 0)]
            for r in result.rows
        ],
    )


# ---------------------------------------------------------------------------
# exact vs partial-shape transfer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartialRow:
    app: str
    n_children: int
    mean_cold_score: float
    mean_exact_score: float
    mean_partial_score: float
    mean_exact_coverage: float
    mean_partial_coverage: float


@dataclass(frozen=True)
class PartialResult:
    rows: tuple


def run_ablation_partial(ctx, apps, n_children: int) -> PartialResult:
    rows = []
    for app in apps:
        problem = ctx.problem(app)
        space = problem.space
        rng = np.random.default_rng(11)
        cold_s, exact_s, partial_s = [], [], []
        exact_c, partial_c = [], []
        attempts = 0
        while len(cold_s) < n_children and attempts < 4 * n_children:
            attempts += 1
            seq = space.sample(rng)
            parent = estimate_candidate(problem, seq, seed=attempts,
                                        keep_weights=True)
            if not parent.ok:
                continue
            child = space.mutate(seq, rng)
            cold = estimate_candidate(problem, child, seed=attempts)
            exact = estimate_candidate(
                problem, child, seed=attempts,
                provider_weights=parent.weights, matcher="lcs")
            partial = estimate_candidate(
                problem, child, seed=attempts,
                provider_weights=parent.weights, matcher="partial")
            if not (cold.ok and exact.ok and partial.ok):
                continue
            cold_s.append(cold.score)
            exact_s.append(exact.score)
            partial_s.append(partial.score)
            exact_c.append(exact.transfer_stats.coverage)
            partial_c.append(partial.transfer_stats.coverage)
        rows.append(PartialRow(
            app=app, n_children=len(cold_s),
            mean_cold_score=float(np.mean(cold_s)),
            mean_exact_score=float(np.mean(exact_s)),
            mean_partial_score=float(np.mean(partial_s)),
            mean_exact_coverage=float(np.mean(exact_c)),
            mean_partial_coverage=float(np.mean(partial_c)),
        ))
    return PartialResult(rows=tuple(rows))


def format_ablation_partial(result: PartialResult) -> str:
    return text_table(
        "Ablation: exact vs partial-shape transfer on d=1 children (LCS)",
        ["App", "Children", "Cold", "Exact", "Partial", "Cov(exact)",
         "Cov(partial)"],
        [
            [r.app, r.n_children, f"{r.mean_cold_score:.3f}",
             f"{r.mean_exact_score:.3f}", f"{r.mean_partial_score:.3f}",
             pct(r.mean_exact_coverage, 0), pct(r.mean_partial_coverage, 0)]
            for r in result.rows
        ],
    )


# ---------------------------------------------------------------------------
# provider policies under random search
# ---------------------------------------------------------------------------

POLICIES = ("parent", "nearest", "random")


@dataclass(frozen=True)
class PolicyRow:
    app: str
    policy: str
    n_candidates: int
    transfer_rate: float
    mean_score: float


@dataclass(frozen=True)
class PolicyResult:
    rows: tuple

    def row(self, app: str, policy: str) -> PolicyRow:
        for r in self.rows:
            if r.app == app and r.policy == policy:
                return r
        raise KeyError((app, policy))


def run_ablation_policies(ctx, apps) -> PolicyResult:
    rows = []
    for app in apps:
        problem = ctx.problem(app)
        for policy in POLICIES:
            store = CheckpointStore(
                ctx.workdir / "ablation" / f"{app}_{policy}")
            strategy = RandomSearch(problem.space, rng=3)
            trace = run_search(
                problem, strategy, ctx.config.num_candidates,
                scheme="lcs", store=store, provider_policy=policy, seed=3,
            )
            ok = trace.ok_records()
            transferred = [r for r in ok if r.transferred]
            rows.append(PolicyRow(
                app=app, policy=policy, n_candidates=len(ok),
                transfer_rate=len(transferred) / len(ok) if ok else 0.0,
                mean_score=float(np.mean([r.score for r in ok])),
            ))
    return PolicyResult(rows=tuple(rows))


def format_ablation_policies(result: PolicyResult) -> str:
    return text_table(
        "Ablation: provider-selection policies under random search (LCS)",
        ["App", "Policy", "Candidates", "Transfer rate", "Mean score"],
        [
            [r.app, r.policy, r.n_candidates, pct(r.transfer_rate, 0),
             f"{r.mean_score:.3f}"]
            for r in result.rows
        ],
    )
