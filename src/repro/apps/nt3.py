"""NT3-like application (paper §VII-A): 1D-conv over tiny-n / huge-d
gene-expression-like profiles, binary classification.

The paper's NT3 signature (Figs. 10-11): training tasks of only a few
seconds but checkpoints that are huge relative to them — the first dense
layer sits on a very wide flattened input.  The cost model below encodes
exactly that: tiny base seconds, low marginal cost per parameter, and a
slow I/O path so checkpoint transfer is a visible fraction of runtime.
"""

from __future__ import annotations

from ..cluster.simcluster import CostModel
from ..nas import (
    ActivationOp,
    AvgPool1DOp,
    Conv1DOp,
    DenseOp,
    DropoutOp,
    FlattenOp,
    IdentityOp,
    MaxPool1DOp,
    Problem,
    SearchSpace,
)
from .datasets import make_profile_dataset

CONV_CHOICES = [(f, k) for f in (4, 8, 16) for k in (3, 7)]
LEARNING_RATE = 5e-3


def build_space(length=512, classes=2) -> SearchSpace:
    space = SearchSpace("nt3", (length, 1))
    for block in range(2):
        space.add_variable(f"b{block}_conv", [
            Conv1DOp(f, k, activation="relu")
            for f, k in CONV_CHOICES
        ])
        space.add_variable(f"b{block}_pool", [
            IdentityOp(), MaxPool1DOp(2),
            AvgPool1DOp(2),
        ])
    space.add_fixed(FlattenOp(), name="flatten")
    space.add_variable("dense0", [IdentityOp()] + [
        DenseOp(u, activation="relu") for u in (32, 64, 128, 256)
    ])
    space.add_variable("act0", [
        IdentityOp(), ActivationOp("relu"), ActivationOp("tanh"),
    ])
    space.add_variable("drop0", [
        IdentityOp(), DropoutOp(0.1), DropoutOp(0.3),
    ])
    space.add_variable("dense1", [
        DenseOp(u, activation="relu") for u in (16, 32, 64, 128)
    ])
    space.add_fixed(DenseOp(classes), name="head")
    return space


def problem(seed=0, n_train=96, n_val=32, length=512, n_motifs=8,
            signal=0.8, noise=1.0, classes=2) -> Problem:
    return Problem(
        name="nt3",
        space=build_space(length, classes),
        dataset=make_profile_dataset(
            n_train=n_train, n_val=n_val, length=length, n_motifs=n_motifs,
            signal=signal, noise=noise, classes=classes, seed=seed,
            name="nt3",
        ),
        learning_rate=LEARNING_RATE,
        batch_size=32,
    )


def cost_model() -> CostModel:
    """~5 s tasks with multi-MB checkpoints over a slow I/O path."""
    return CostModel(base_seconds=4.0, seconds_per_param=1e-6,
                     dispatch_latency=0.5, ckpt_latency=0.2,
                     write_bandwidth=20e6, read_bandwidth=40e6)
