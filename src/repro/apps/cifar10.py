"""CIFAR-10-like application (paper §VII-A).

Space structure per DESIGN.md: 3 VGG-style blocks, each with two
(conv, pool, batch-norm) variable triples, then three variable dense
nodes — 21 variable nodes, |space| ≈ 1.7e14 (Table I's 169T).  The
fixed-width bottleneck before the head mirrors the paper's near-complete
pair shareability for this space (Fig. 2).

Learning rate 1e-2: the synthetic set gives ~10-20 optimizer steps per
epoch vs the paper's ~1000 at Adam 1e-3 (DESIGN.md "Learning-rate
scaling").
"""

from __future__ import annotations

from ..cluster.simcluster import CostModel
from ..nas import (
    AvgPool2DOp,
    BatchNormOp,
    Conv2DOp,
    DenseOp,
    FlattenOp,
    IdentityOp,
    MaxPool2DOp,
    Problem,
    SearchSpace,
)
from .datasets import make_image_dataset

#: conv menu: 4 filter counts x 2 kernel sizes x 2 activations = 16
CONV_CHOICES = [(f, k, a) for f in (8, 16, 24, 32)
                for k in (3, 5) for a in ("relu", "tanh")]
DENSE_UNITS = (16, 32, 64, 128, 256)
LEARNING_RATE = 1e-2


def build_space(height=12, width=12, channels=3, classes=10) -> SearchSpace:
    space = SearchSpace("cifar10", (height, width, channels))
    for block in range(3):
        for half in range(2):
            tag = f"b{block}{'ab'[half]}"
            space.add_variable(f"{tag}_conv", [
                Conv2DOp(f, k, activation=a)
                for f, k, a in CONV_CHOICES
            ])
            space.add_variable(f"{tag}_pool", [
                IdentityOp(),
                MaxPool2DOp(2),
                AvgPool2DOp(2),
            ])
            space.add_variable(f"{tag}_bn", [IdentityOp(), BatchNormOp()])
    space.add_fixed(FlattenOp(), name="flatten")
    for i in range(3):
        space.add_variable(f"dense{i}", [IdentityOp()] + [
            DenseOp(u, activation="relu") for u in DENSE_UNITS
        ])
    space.add_fixed(DenseOp(32, activation="relu"), name="bottleneck")
    space.add_fixed(DenseOp(classes), name="head")
    return space


def problem(seed=0, n_train=128, n_val=48, height=12, width=12,
            classes=10, signal=0.9, noise=1.0) -> Problem:
    return Problem(
        name="cifar10",
        space=build_space(height, width, 3, classes),
        dataset=make_image_dataset(
            n_train=n_train, n_val=n_val, height=height, width=width,
            channels=3, classes=classes, signal=signal, noise=noise,
            seed=seed, name="cifar10",
        ),
        learning_rate=LEARNING_RATE,
        batch_size=32,
    )


def cost_model() -> CostModel:
    """Longest tasks of the four apps; checkpoint I/O invisible."""
    return CostModel(base_seconds=60.0, seconds_per_param=2e-4,
                     dispatch_latency=0.5, ckpt_latency=0.05,
                     write_bandwidth=200e6, read_bandwidth=400e6)
