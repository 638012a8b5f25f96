"""Figure 11 — checkpoint sizes per application (the payload bytes each
LCS save wrote, as its trace record keeps them)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .report import human_bytes, text_table


@dataclass(frozen=True)
class Fig11Row:
    app: str
    n_checkpoints: int
    mean_bytes: float
    max_bytes: int
    min_bytes: int


@dataclass(frozen=True)
class Fig11Result:
    rows: tuple

    def mean_bytes(self, app: str) -> float:
        for r in self.rows:
            if r.app == app:
                return r.mean_bytes
        raise KeyError(app)


def run_fig11(ctx) -> Fig11Result:
    rows = []
    for app in ctx.config.apps:
        sizes = np.array([r.ckpt_bytes for r in ctx.trace(app, "lcs")
                          if r.ckpt_bytes > 0], dtype=np.float64)
        rows.append(Fig11Row(
            app=app, n_checkpoints=int(sizes.size),
            mean_bytes=float(sizes.mean()) if sizes.size else 0.0,
            max_bytes=int(sizes.max()) if sizes.size else 0,
            min_bytes=int(sizes.min()) if sizes.size else 0,
        ))
    return Fig11Result(rows=tuple(rows))


def format_fig11(result: Fig11Result) -> str:
    return text_table(
        "Figure 11: average checkpoint sizes (real on-disk payload bytes)",
        ["App", "Checkpoints", "Mean bytes", "Max", "Min"],
        [
            [r.app, r.n_checkpoints, human_bytes(r.mean_bytes),
             human_bytes(r.max_bytes), human_bytes(r.min_bytes)]
            for r in result.rows
        ],
    )
