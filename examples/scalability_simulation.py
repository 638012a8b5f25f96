#!/usr/bin/env python
"""Multi-GPU scalability simulation (the paper's Figure 10 scenario).

Runs the candidate-estimation phase for two contrasting applications on a
virtual-clock cluster of 8, 16 and 32 simulated GPUs: the ordinary
``run_search`` loop, with ``SimulatedCluster`` as its evaluator.

* CIFAR-10-like — long training tasks: near-linear scaling, transfer
  overhead invisible;
* NT3-like — very short tasks with comparatively large checkpoints: the
  serial scheduler and the checkpoint I/O cap the scaling, reproducing
  the paper's NT3 anomaly.

Run:  python examples/scalability_simulation.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.apps import get_app
from repro.checkpoint import CheckpointStore
from repro.cluster import SimulatedCluster, run_search
from repro.nas import RegularizedEvolution

NUM_CANDIDATES = 160
GPU_COUNTS = (8, 16, 32)
OVERRIDES = {
    "cifar10": dict(n_train=96, n_val=32, height=10, width=10),
    "nt3": dict(n_train=96, n_val=32, length=256, n_motifs=4, signal=0.8),
}


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="scaling-"))
    for app in ("cifar10", "nt3"):
        spec = get_app(app)
        problem = spec.problem(seed=0, **OVERRIDES[app])
        print(f"\n=== {app} ===")
        for scheme in ("baseline", "lcs"):
            makespans = {}
            for gpus in GPU_COUNTS:
                store = CheckpointStore(workdir / f"{app}-{scheme}-{gpus}")
                strategy = RegularizedEvolution(
                    problem.space, rng=0, population_size=8, sample_size=4
                )
                trace = run_search(
                    problem, strategy, NUM_CANDIDATES, scheme=scheme,
                    store=store,
                    evaluator=SimulatedCluster(
                        num_gpus=gpus, cost_model=spec.cost_model()),
                )
                makespans[gpus] = trace.makespan
            base = makespans[GPU_COUNTS[0]]
            cells = "  ".join(
                f"{g} GPUs: {m:7.1f}s (x{base / m:.2f})"
                for g, m in makespans.items()
            )
            print(f"  [{scheme:<8}] {cells}")
        ideal = GPU_COUNTS[-1] // GPU_COUNTS[0]
        print(f"  (ideal {GPU_COUNTS[0]}->{GPU_COUNTS[-1]} speedup: x{ideal:.2f})")

    print("\nExpected: near-ideal scaling for cifar10; nt3 saturates because")
    print("its ~5s tasks serialize on the scheduler and pay checkpoint I/O.")


if __name__ == "__main__":
    main()
