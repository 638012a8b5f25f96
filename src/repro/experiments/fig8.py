"""Figure 8 — full-training speedup (epochs to early stop) of the top-K.

Also the data source for Tables III/IV: the same full-training results
are cached on the context and reused there, the way the paper derives
all three from one phase-2 run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..metrics import geometric_mean, mean_ci
from .report import text_table


@dataclass(frozen=True)
class Fig8Row:
    app: str
    scheme: str
    n_models: int
    mean_epochs: float
    ci_epochs: float
    early_stopped_mean: float
    fully_trained_mean: float


@dataclass(frozen=True)
class Fig8Result:
    rows: tuple
    speedups: dict          # {"lp": geomean, "lcs": geomean}


def full_train_top(ctx):
    """(app, scheme) -> [FullTrainResult] for the top-K of each run."""
    out = {}
    for app in ctx.config.apps:
        for scheme in ctx.config.schemes:
            records = ctx.top_records(app, scheme)
            out[(app, scheme)] = [ctx.full(app, scheme, r) for r in records]
    return out


def run_fig8(ctx) -> Fig8Result:
    results = full_train_top(ctx)
    rows = []
    for (app, scheme), rs in results.items():
        epochs = [r.epochs for r in rs]
        m, ci = mean_ci(epochs)
        rows.append(Fig8Row(
            app=app, scheme=scheme, n_models=len(rs),
            mean_epochs=float(m), ci_epochs=float(ci),
            early_stopped_mean=float(np.mean(
                [r.early_stopped_score for r in rs])),
            fully_trained_mean=float(np.mean([r.score for r in rs])),
        ))
    speedups = {}
    for scheme in ctx.config.schemes:
        if scheme == "baseline":
            continue
        ratios = []
        for app in ctx.config.apps:
            base = np.mean([r.epochs for r in results[(app, "baseline")]])
            mine = np.mean([r.epochs for r in results[(app, scheme)]])
            ratios.append(base / mine)
        speedups[scheme] = geometric_mean(ratios)
    return Fig8Result(rows=tuple(rows), speedups=speedups)


def format_fig8(result: Fig8Result) -> str:
    table = text_table(
        "Figure 8: epochs to convergence for the top-K models",
        ["App", "Scheme", "Models", "Epochs(early-stop)", "Obj(early)",
         "Obj(full)"],
        [
            [r.app, r.scheme, r.n_models,
             f"{r.mean_epochs:.2f} ± {r.ci_epochs:.2f}",
             f"{r.early_stopped_mean:.3f}", f"{r.fully_trained_mean:.3f}"]
            for r in result.rows
        ],
    )
    lines = [
        f"geometric-mean full-training speedup {s.upper()} vs baseline: "
        f"{v:.2f}x"
        for s, v in result.speedups.items()
    ]
    return table + "\n\n" + "\n".join(lines)
