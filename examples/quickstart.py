#!/usr/bin/env python
"""Quickstart: NAS with selective weight transfer in ~40 lines.

Builds a small search space over a synthetic image-classification task,
runs regularized evolution twice — once training every candidate from
scratch (the baseline) and once with LCS weight transfer from each
child's parent — and prints the score trajectories and best candidates.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import tempfile

import numpy as np

from repro.apps import make_image_dataset
from repro.checkpoint import CheckpointStore
from repro.cluster import run_search
from repro.nas import (
    ActivationOp,
    Conv2DOp,
    DenseOp,
    DropoutOp,
    FlattenOp,
    IdentityOp,
    MaxPool2DOp,
    Problem,
    RegularizedEvolution,
    SearchSpace,
)


def build_space() -> SearchSpace:
    """A 5-variable-node convolutional space (~2,000 candidates)."""
    space = SearchSpace("quickstart", (12, 12, 1))
    space.add_variable(
        "conv",
        [Conv2DOp(f, 3, activation="relu") for f in (4, 8, 16)],
    )
    space.add_variable("pool", [IdentityOp(), MaxPool2DOp(2)])
    space.add_fixed(FlattenOp(), name="flatten")
    space.add_variable(
        "dense", [IdentityOp(), DenseOp(32), DenseOp(64), DenseOp(128)]
    )
    space.add_variable(
        "act", [ActivationOp("relu"), ActivationOp("tanh"), ActivationOp("sigmoid")]
    )
    space.add_variable("drop", [IdentityOp(), DropoutOp(0.2), DropoutOp(0.5)])
    space.add_fixed(DenseOp(5), name="head")
    return space


def main() -> None:
    space = build_space()
    print(f"search space: {space.num_variable_nodes} variable nodes, "
          f"{space.size} candidate models")

    problem = Problem(
        name="quickstart",
        space=space,
        dataset=make_image_dataset(
            n_train=256, n_val=64, height=12, width=12, channels=1, classes=5, seed=7
        ),
        learning_rate=0.02,
        batch_size=32,
    )

    results = {}
    for scheme in ("baseline", "lcs"):
        store = CheckpointStore(tempfile.mkdtemp(prefix=f"quickstart-{scheme}-"))
        strategy = RegularizedEvolution(
            space, rng=42, population_size=8, sample_size=4
        )
        trace = run_search(
            problem, strategy, num_candidates=24, scheme=scheme, store=store
        )
        results[scheme] = trace
        scores = [r.score for r in trace.ok_records()]
        best = trace.best(1)[0]
        print(f"\n[{scheme}] evaluated {len(trace)} candidates in "
              f"{trace.makespan:.1f}s")
        print(f"  mean score {np.mean(scores):.3f}, best {best.score:.3f} "
              f"(arch {best.arch_seq})")
        print("  best architecture choices:")
        for line in space.describe(best.arch_seq):
            print(f"    {line}")

    base = np.mean([r.score for r in results["baseline"].ok_records()[8:]])
    lcs = np.mean([r.score for r in results["lcs"].ok_records()[8:]])
    print(f"\npost-warmup mean score: baseline={base:.3f}  lcs={lcs:.3f}")
    print("weight transfer should match or beat the baseline on average.")


if __name__ == "__main__":
    main()
