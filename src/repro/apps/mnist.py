"""MNIST-like application (paper §VII-A): LeNet-ish, 11 variable nodes.

Unlike the CIFAR space there is no fixed-width layer before the head, so
two random candidates only share tensor shapes by coincidence — the
paper's markedly lower Figure 2 fraction for MNIST.
"""

from __future__ import annotations

from ..cluster.simcluster import CostModel
from ..nas import (
    ActivationOp,
    BatchNormOp,
    Conv2DOp,
    DenseOp,
    DropoutOp,
    FlattenOp,
    IdentityOp,
    MaxPool2DOp,
    Problem,
    SearchSpace,
)
from .datasets import make_image_dataset

CONV_CHOICES = [(f, k) for f in (4, 8, 16, 32) for k in (3, 5)]
DENSE_UNITS = (16, 32, 64, 128, 256)
LEARNING_RATE = 1e-2


def build_space(height=12, width=12, classes=10) -> SearchSpace:
    space = SearchSpace("mnist", (height, width, 1))
    for block in range(2):
        space.add_variable(f"b{block}_conv", [
            Conv2DOp(f, k, activation="relu")
            for f, k in CONV_CHOICES
        ])
        space.add_variable(f"b{block}_pool", [
            IdentityOp(), MaxPool2DOp(2),
        ])
        space.add_variable(f"b{block}_bn", [IdentityOp(), BatchNormOp()])
    space.add_fixed(FlattenOp(), name="flatten")
    space.add_variable("dense0", [IdentityOp()] + [
        DenseOp(u, activation="relu") for u in DENSE_UNITS
    ])
    space.add_variable("act0", [
        IdentityOp(), ActivationOp("relu"), ActivationOp("tanh"),
        ActivationOp("sigmoid"),
    ])
    space.add_variable("drop0", [
        IdentityOp(), DropoutOp(0.1), DropoutOp(0.3),
    ])
    space.add_variable("dense1", [IdentityOp()] + [
        DenseOp(u, activation="relu") for u in DENSE_UNITS
    ])
    space.add_variable("act1", [
        IdentityOp(), ActivationOp("relu"), ActivationOp("tanh"),
        ActivationOp("sigmoid"),
    ])
    space.add_fixed(DenseOp(classes), name="head")
    return space


def problem(seed=0, n_train=128, n_val=48, height=12, width=12,
            classes=10, signal=0.9, noise=1.0) -> Problem:
    return Problem(
        name="mnist",
        space=build_space(height, width, classes),
        dataset=make_image_dataset(
            n_train=n_train, n_val=n_val, height=height, width=width,
            channels=1, classes=classes, signal=signal, noise=noise,
            seed=seed, name="mnist",
        ),
        learning_rate=LEARNING_RATE,
        batch_size=32,
    )


def cost_model() -> CostModel:
    return CostModel(base_seconds=20.0, seconds_per_param=2e-4,
                     dispatch_latency=0.5, ckpt_latency=0.05,
                     write_bandwidth=200e6, read_bandwidth=400e6)
