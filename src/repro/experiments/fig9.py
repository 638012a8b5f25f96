"""Figure 9 — Kendall's tau of estimated scores vs fully-trained metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..metrics import kendall_tau
from .report import text_table


@dataclass(frozen=True)
class Fig9Row:
    app: str
    scheme: str
    n_sampled: int
    tau: float


@dataclass(frozen=True)
class Fig9Result:
    rows: tuple


def _sample_records(records, n):
    """Evenly spaced sample across the completion order (includes the
    first and last candidate)."""
    if len(records) <= n:
        return list(records)
    idx = np.unique(np.linspace(0, len(records) - 1, n).astype(int))
    return [records[i] for i in idx]


def run_fig9(ctx) -> Fig9Result:
    rows = []
    for app in ctx.config.apps:
        for scheme in ctx.config.schemes:
            records = _sample_records(
                ctx.trace(app, scheme).ok_records(), ctx.config.n_sampled)
            estimated = [r.score for r in records]
            fully = [ctx.full(app, scheme, r).score for r in records]
            rows.append(Fig9Row(
                app=app, scheme=scheme, n_sampled=len(records),
                tau=float(kendall_tau(estimated, fully)),
            ))
    return Fig9Result(rows=tuple(rows))


def format_fig9(result: Fig9Result) -> str:
    return text_table(
        "Figure 9: Kendall's tau, estimated scores vs fully-trained metrics",
        ["App", "Scheme", "Sampled", "Kendall tau"],
        [
            [r.app, r.scheme, r.n_sampled, f"{r.tau:.3f}"]
            for r in result.rows
        ],
    )
