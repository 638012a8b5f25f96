#!/usr/bin/env python
"""Multi-input drug-response NAS (the paper's Uno application).

Demonstrates the full two-phase NAS pipeline on the Uno-like multi-source
regression problem:

1. candidate estimation with regularized evolution, comparing all three
   schemes (baseline / LP / LCS) under the same simulated 8-GPU cluster;
2. full training of each scheme's top-3 models with the paper's early
   stopping, reporting epochs-to-convergence and the final R^2.

Run:  python examples/drug_response_uno.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.apps import get_app
from repro.checkpoint import CheckpointStore
from repro.cluster import SimulatedCluster, checkpoint_key, run_search
from repro.nas import RegularizedEvolution, full_train

NUM_CANDIDATES = 36
TOP_K = 3


def main() -> None:
    spec = get_app("uno")
    problem = spec.problem(seed=0, n_train=256, n_val=96)
    print("Uno-like drug-response regression")
    print(f"  sources: {problem.space.input_shapes}")
    print(f"  search space: {problem.space.size:.3g} candidates, "
          f"{problem.space.num_variable_nodes} variable nodes\n")

    workdir = Path(tempfile.mkdtemp(prefix="uno-nas-"))
    summaries = {}
    for scheme in ("baseline", "lp", "lcs"):
        store = CheckpointStore(workdir / scheme)
        strategy = RegularizedEvolution(
            problem.space, rng=1, population_size=10, sample_size=5
        )
        trace = run_search(
            problem, strategy, NUM_CANDIDATES, scheme=scheme, store=store,
            evaluator=SimulatedCluster(num_gpus=8,
                                       cost_model=spec.cost_model()),
        )
        print(f"[{scheme}] estimation done: virtual makespan "
              f"{trace.makespan:.0f}s on 8 GPUs")

        # phase 2: fully train the top-K (transfer schemes resume from
        # their partial-training checkpoints)
        rows = []
        for rec in trace.best(TOP_K):
            initial = None
            if scheme != "baseline" and store.exists(checkpoint_key(rec.candidate_id)):
                initial = store.load(checkpoint_key(rec.candidate_id))
            result = full_train(
                problem, rec.arch_seq, seed=0, initial_weights=initial
            )
            rows.append((rec.score, result.epochs, result.score))
        summaries[scheme] = rows
        for est, epochs, r2 in rows:
            print(f"    est={est:+.3f} -> fully trained R2={r2:+.3f} "
                  f"in {epochs} epochs (early stop)")
        print()

    print("epochs to convergence (mean over top-3):")
    base_epochs = np.mean([e for _, e, _ in summaries["baseline"]])
    for scheme, rows in summaries.items():
        mean_epochs = np.mean([e for _, e, _ in rows])
        mean_r2 = np.mean([r for _, _, r in rows])
        speedup = base_epochs / mean_epochs
        print(f"  {scheme:<9} epochs={mean_epochs:.1f} "
              f"(speedup {speedup:.2f}x)  R2={mean_r2:+.3f}")


if __name__ == "__main__":
    main()
