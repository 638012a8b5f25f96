"""Machine-checked verdicts for the paper's qualitative claims.

Each claim is a predicate over the measured experiment results: the
scorecard re-runs (or reads from the context cache) every experiment
and reduces it to HOLDS / DIFFERS plus a one-line measurement, so the
reproduction status is a command, not a judgement call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ablations import POLICIES  # noqa: F401  (re-export convenience)
from .fig2 import run_fig2
from .fig4 import run_fig4
from .fig5 import run_fig5
from .fig7 import run_fig7
from .fig8 import run_fig8
from .fig9 import run_fig9
from .fig10 import run_fig10
from .fig11 import run_fig11
from .report import pct, text_table
from .table1 import run_table1
from .table3 import run_table3
from .table4 import run_table4

SIZE_ORDER = ("cifar10", "uno", "mnist", "nt3")   # paper's Table I ordering


@dataclass(frozen=True)
class ClaimRow:
    claim: str
    paper: str
    holds: bool
    measured: str

    @property
    def verdict(self) -> str:
        return "HOLDS" if self.holds else "DIFFERS"


@dataclass(frozen=True)
class ScorecardResult:
    rows: tuple

    @property
    def n_holds(self) -> int:
        return sum(1 for r in self.rows if r.holds)


def _tail_delta(fig7, app: str, scheme: str) -> float:
    return fig7.get(app, scheme).tail_mean() - fig7.get(app, "baseline").tail_mean()


def run_scorecard(ctx) -> ScorecardResult:
    apps = ctx.config.apps
    rows = []

    # Table I: the search-space structure matches the paper's ordering.
    t1 = run_table1(ctx.config)
    sizes = {r.app: r.size for r in t1.rows}
    vns = {r.app: r.num_variable_nodes for r in t1.rows}
    order = [a for a in SIZE_ORDER if a in sizes]
    ordered = all(sizes[order[i]] > sizes[order[i + 1]]
                  for i in range(len(order) - 1))
    rows.append(ClaimRow(
        "T1-structure", "Table I",
        ordered and all(v >= 8 for v in vns.values()),
        ", ".join(f"{a}:{vns[a]}VNs" for a in apps)))

    # Fig. 2: a large fraction of random pairs share layer shapes, with
    # clearly app-dependent magnitude.
    f2 = run_fig2(ctx)
    frac = {r.app: r.shareable_fraction for r in f2.rows}
    rows.append(ClaimRow(
        "F2-shareable", "Fig. 2",
        max(frac.values()) >= 0.8 and min(frac.values()) >= 0.1,
        ", ".join(f"{a}={pct(frac[a], 0)}" for a in apps)))

    # Fig. 4: LCS transfers at least as broadly as LP on every app.
    f4 = run_fig4(ctx)
    rows.append(ClaimRow(
        "F4-scope", "Fig. 4",
        all(f4.row(a, "lcs").transferable_fraction
            >= f4.row(a, "lp").transferable_fraction for a in apps),
        ", ".join(
            f"{a}: lcs {pct(f4.row(a, 'lcs').transferable_fraction, 0)}"
            f" vs lp {pct(f4.row(a, 'lp').transferable_fraction, 0)}"
            for a in apps)))

    # Fig. 4: transfers from arbitrary providers are not reliably
    # positive — the motivation for restricting providers to parents.
    min_pos = min(r.positive_fraction for r in f4.rows)
    rows.append(ClaimRow(
        "F4-random-harmful", "Fig. 4",
        min_pos < 0.75,
        f"min positive rate {pct(min_pos, 0)}"))

    # Fig. 5: close pairs transfer more than distant pairs.
    f5 = run_fig5(ctx)
    near_n = near_t = far_n = far_t = 0
    for c in f5.cells:
        lo = int(c.distance_bucket.split("-")[0])
        if lo <= 2:
            near_n += c.n_pairs
            near_t += c.transferable_fraction * c.n_pairs
        elif lo >= 5:
            far_n += c.n_pairs
            far_t += c.transferable_fraction * c.n_pairs
    near = near_t / near_n if near_n else 0.0
    far = far_t / far_n if far_n else 0.0
    rows.append(ClaimRow(
        "F5-distance", "Fig. 5",
        near >= far,
        f"transferable d<=2: {pct(near, 0)} vs d>=5: {pct(far, 0)}"))

    # Fig. 7: both transfer schemes beat the baseline's post-warmup
    # mean score on (virtually) equal wall time.
    f7 = run_fig7(ctx)
    for scheme in ("lp", "lcs"):
        deltas = {a: _tail_delta(f7, a, scheme) for a in apps}
        vals = np.array(list(deltas.values()))
        rows.append(ClaimRow(
            f"F7-{scheme}", "Fig. 7",
            float(vals.mean()) > 0.0 and float(vals.min()) > -0.05,
            ", ".join(f"{a}:{deltas[a]:+.3f}" for a in apps)))

    # Fig. 8: warm-started top-K models early-stop sooner.
    f8 = run_fig8(ctx)
    for scheme in ("lp", "lcs"):
        rows.append(ClaimRow(
            f"F8-{scheme}", "Fig. 8",
            f8.speedups[scheme] >= 1.0,
            f"measured {f8.speedups[scheme]:.2f}x geomean"))

    # Table III: transfer does not degrade final model quality.
    t3 = run_table3(ctx)
    deltas = [t3.row(a, s).fully_trained_mean
              - t3.row(a, "baseline").fully_trained_mean
              for a in apps for s in ("lp", "lcs")]
    rows.append(ClaimRow(
        "T3-quality", "Table III",
        float(np.mean(deltas)) >= -0.02,
        f"mean delta vs baseline {np.mean(deltas):+.3f}"))

    # Table IV: discovered models stay comparable in size.
    t4 = run_table4(ctx)
    ratios = [t4.row(a, s).mean_params / t4.row(a, "baseline").mean_params
              for a in apps for s in ("lp", "lcs")]
    rows.append(ClaimRow(
        "T4-complexity", "Table IV",
        0.25 <= float(np.mean(ratios)) <= 4.0,
        f"mean param ratio vs baseline {np.mean(ratios):.2f}"))

    # Fig. 9: estimated scores rank like fully-trained metrics
    # (the paper reports strong correlation; we require tau >= 0.5).
    f9 = run_fig9(ctx)
    taus = {s: float(np.mean([r.tau for r in f9.rows if r.scheme == s]))
            for s in ctx.config.schemes}
    rows.append(ClaimRow(
        "F9-tau", "Fig. 9",
        all(t >= 0.5 for t in taus.values()),
        "mean tau " + ", ".join(f"{s}={t:.2f}" for s, t in taus.items())))

    # Fig. 10: checkpoint I/O stays a small fraction of GPU time...
    f10 = run_fig10(ctx)
    gmax = max(ctx.config.gpu_counts)
    gmin = min(ctx.config.gpu_counts)
    ovh = {a: f10.cell(a, "lcs", gmax).overhead_fraction for a in apps}
    rows.append(ClaimRow(
        "F10-overhead", "Fig. 10",
        max(ovh.values()) < 0.25,
        ", ".join(f"{a}:{pct(ovh[a])}" for a in apps)))

    # ...and estimation keeps scaling with more GPUs.
    shrinks = {a: f10.cell(a, "lcs", gmax).makespan
               < f10.cell(a, "lcs", gmin).makespan for a in apps}
    effs = {a: (f10.cell(a, "lcs", gmin).makespan
                / f10.cell(a, "lcs", gmax).makespan) / (gmax / gmin)
            for a in apps}
    nt3_eff = effs.pop("nt3", None)
    measured = f"lcs efficiency others={np.mean(list(effs.values())):.2f}"
    if nt3_eff is not None:
        measured += f", nt3={nt3_eff:.2f}"
    rows.append(ClaimRow(
        "F10-scaling", "Fig. 10", all(shrinks.values()), measured))

    # Fig. 11: NT3 writes the largest checkpoints despite its smallest
    # search space (wide dense layers over a long flattened profile).
    f11 = run_fig11(ctx)
    means = {a: f11.mean_bytes(a) for a in apps}
    rows.append(ClaimRow(
        "F11-nt3-ckpt", "Fig. 11",
        "nt3" in means and means["nt3"] == max(means.values()),
        ", ".join(f"{a}={means[a] / 1024:.0f}KB" for a in apps)))

    return ScorecardResult(rows=tuple(rows))


def format_scorecard(result: ScorecardResult) -> str:
    table = text_table(
        "Reproduction scorecard",
        ["Claim", "Paper", "Verdict", "Measured"],
        [[r.claim, r.paper, r.verdict, r.measured] for r in result.rows],
    )
    return (f"{table}\n\n{result.n_holds}/{len(result.rows)} "
            "qualitative claims reproduced")
