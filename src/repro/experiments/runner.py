"""Experiment runner CLI.

    python -m repro.experiments.runner --scale smoke --workdir results/smoke all
    python -m repro.experiments.runner --scale default --workdir results/default scorecard
    python -m repro.experiments.runner fig2 fig7

Each experiment prints its formatted text table; ``all`` runs every
experiment in paper order, ``scorecard`` just the verdict table. Traces
and full-training results are cached under the workdir, so re-running a
subset is cheap after the first full pass.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .ablations import (
    format_ablation_distance,
    format_ablation_partial,
    format_ablation_policies,
    run_ablation_distance,
    run_ablation_partial,
    run_ablation_policies,
)
from .context import ExperimentContext
from .faults import format_ablation_faults, run_ablation_faults
from .fig2 import format_fig2, run_fig2
from .fig4 import format_fig4, run_fig4
from .fig5 import format_fig5, run_fig5
from .fig7 import format_fig7, run_fig7
from .fig8 import format_fig8, run_fig8
from .fig9 import format_fig9, run_fig9
from .fig10 import format_fig10, run_fig10
from .fig11 import format_fig11, run_fig11
from .scorecard import format_scorecard, run_scorecard
from .table1 import format_table1, run_table1
from .table3 import format_table3, run_table3
from .table4 import format_table4, run_table4

EXPERIMENTS = {
    "table1": lambda ctx: format_table1(run_table1(ctx.config)),
    "fig2": lambda ctx: format_fig2(run_fig2(ctx)),
    "fig4": lambda ctx: format_fig4(run_fig4(ctx)),
    "fig5": lambda ctx: format_fig5(run_fig5(ctx)),
    "fig7": lambda ctx: format_fig7(run_fig7(ctx)),
    "fig8": lambda ctx: format_fig8(run_fig8(ctx)),
    "table3": lambda ctx: format_table3(run_table3(ctx)),
    "table4": lambda ctx: format_table4(run_table4(ctx)),
    "fig9": lambda ctx: format_fig9(run_fig9(ctx)),
    "fig10": lambda ctx: format_fig10(run_fig10(ctx)),
    "fig11": lambda ctx: format_fig11(run_fig11(ctx)),
    "ablation-distance": lambda ctx: format_ablation_distance(
        run_ablation_distance(ctx, ctx.config.apps, (1, 4))),
    "ablation-partial": lambda ctx: format_ablation_partial(
        run_ablation_partial(ctx, ctx.config.apps, 8)),
    "ablation-policies": lambda ctx: format_ablation_policies(
        run_ablation_policies(ctx, ctx.config.apps)),
    "ablation-faults": lambda ctx: format_ablation_faults(
        run_ablation_faults(ctx, ctx.config.apps)),
    "scorecard": lambda ctx: format_scorecard(run_scorecard(ctx)),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.runner",
        description="Run the paper-reproduction experiments.")
    parser.add_argument("--scale", default="smoke",
                        choices=("smoke", "default", "paper"))
    parser.add_argument("--workdir", type=Path, default=None,
                        help="cache/checkpoint directory "
                             "(default: results/<scale>)")
    parser.add_argument("experiments", nargs="+",
                        help="experiment ids, or 'all' / 'scorecard'; "
                             f"known: {', '.join(EXPERIMENTS)}")
    args = parser.parse_args(argv)

    requested = []
    for e in args.experiments:
        if e == "all":
            requested.extend(EXPERIMENTS)
        elif e in EXPERIMENTS:
            requested.append(e)
        else:
            parser.error(f"unknown experiment {e!r}; "
                         f"known: {', '.join(EXPERIMENTS)}, all")

    ctx = ExperimentContext(scale=args.scale, workdir=args.workdir)
    print(f"# scale={args.scale} workdir={ctx.workdir}", flush=True)
    for name in dict.fromkeys(requested):
        print(f"\n== {name} ==", flush=True)
        print(EXPERIMENTS[name](ctx), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
