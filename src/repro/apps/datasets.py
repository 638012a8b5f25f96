"""Deterministic synthetic datasets with the papers' application *structure*.

DESIGN.md substitution table: the transfer effects depend on structural
overlap between candidate architectures and on the relative dataset
shapes, not on real pixel content.  Each generator plants a learnable
class-conditional (or latent-factor) signal so that one partial-training
epoch already separates good architectures from bad ones, while enough
noise is left that warm-started candidates keep an edge over cold ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np


@dataclass
class Dataset:
    """Train/validation arrays plus the loss/objective they imply."""

    name: str
    x_train: Union[np.ndarray, list]
    y_train: np.ndarray
    x_val: Union[np.ndarray, list]
    y_val: np.ndarray
    loss: str = "categorical_crossentropy"
    metric: str = "accuracy"
    extra: dict = field(default_factory=dict)

    @property
    def input_shapes(self):
        xs = self.x_train if isinstance(self.x_train, (list, tuple)) \
            else [self.x_train]
        return tuple(x.shape[1:] for x in xs)


#: every generator emits this dtype end-to-end; the kernels preserve it,
#: so training never silently promotes to float64 (2x the matmul cost)
DTYPE = np.float32


def _onehot(labels: np.ndarray, classes: int) -> np.ndarray:
    out = np.zeros((labels.shape[0], classes), dtype=DTYPE)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def _smooth_template(rng, height, width, channels, coarse=3):
    """Low-frequency spatial pattern: coarse noise upsampled, so local
    (convolutional) structure genuinely helps."""
    grid = rng.normal(size=(coarse, coarse, channels))
    reps = (int(np.ceil(height / coarse)), int(np.ceil(width / coarse)), 1)
    ones = np.ones((reps[0], reps[1], 1), dtype=DTYPE)
    return np.kron(grid, ones)[:height, :width, :]


def make_image_dataset(n_train=128, n_val=48, height=12, width=12,
                       channels=3, classes=10, signal=0.9, noise=1.0,
                       seed=0, name="image") -> Dataset:
    """CIFAR/MNIST-like classification: class templates + pixel noise."""
    rng = np.random.default_rng(seed)
    templates = np.stack([
        _smooth_template(rng, height, width, channels) for _ in range(classes)
    ])

    def split(n):
        labels = rng.integers(classes, size=n)
        x = signal * templates[labels] + noise * rng.normal(
            size=(n, height, width, channels))
        return x.astype(DTYPE), _onehot(labels, classes)

    x_train, y_train = split(n_train)
    x_val, y_val = split(n_val)
    return Dataset(name, x_train, y_train, x_val, y_val,
                   loss="categorical_crossentropy", metric="accuracy")


def make_profile_dataset(n_train=96, n_val=32, length=512, n_motifs=8,
                         signal=0.8, noise=1.0, classes=2, seed=0,
                         name="profile") -> Dataset:
    """NT3-like tiny-n / huge-d 1D profiles: class-dependent motifs
    planted at fixed positions along the sequence."""
    rng = np.random.default_rng(seed)
    motif_len = max(4, length // 64)
    positions = rng.choice(length - motif_len, size=n_motifs, replace=False)
    motifs = rng.normal(size=(classes, n_motifs, motif_len))

    def split(n):
        labels = rng.integers(classes, size=n)
        x = noise * rng.normal(size=(n, length, 1))
        for i, lab in enumerate(labels):
            for m, pos in enumerate(positions):
                x[i, pos:pos + motif_len, 0] += signal * motifs[lab, m]
        return x.astype(DTYPE), _onehot(labels, classes)

    x_train, y_train = split(n_train)
    x_val, y_val = split(n_val)
    return Dataset(name, x_train, y_train, x_val, y_val,
                   loss="categorical_crossentropy", metric="accuracy")


def make_multisource_dataset(n_train=256, n_val=96, dims=(60, 40, 20),
                             latent=8, signal=1.0, noise=0.3, seed=0,
                             name="multisource") -> Dataset:
    """Uno-like multi-input regression: every source is a noisy linear
    view of shared latent factors; the target is a mildly nonlinear
    function of those factors (R^2 objective)."""
    rng = np.random.default_rng(seed)
    mixers = [rng.normal(size=(latent, d)) / np.sqrt(latent) for d in dims]
    w_lin = rng.normal(size=latent)
    w_sq = rng.normal(size=latent) * 0.5

    def split(n):
        z = rng.normal(size=(n, latent))
        xs = [signal * z @ m + noise * rng.normal(size=(n, m.shape[1]))
              for m in mixers]
        y = z @ w_lin + np.tanh(z) @ w_sq
        y = (y - y.mean()) / (y.std() + 1e-12)
        return [x.astype(DTYPE) for x in xs], y[:, None].astype(DTYPE)

    x_train, y_train = split(n_train)
    x_val, y_val = split(n_val)
    return Dataset(name, x_train, y_train, x_val, y_val,
                   loss="mse", metric="r2")
