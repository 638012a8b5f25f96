"""Losses and objective metrics.

A loss is a pair ``loss(pred_or_logits, y) -> (scalar, grad_wrt_pred)``;
classification uses fused softmax cross-entropy on logits.  Metrics map
``(pred, y) -> scalar`` where higher is better (accuracy, R^2).
"""

from __future__ import annotations

import numpy as np

from .autodiff_ops import softmax_cross_entropy, \
    softmax_cross_entropy_backward


def categorical_crossentropy(logits, onehot):
    loss, probs = softmax_cross_entropy(logits, onehot)
    return loss, softmax_cross_entropy_backward(probs, onehot)


def mse(pred, y):
    diff = pred - y
    return float(np.mean(diff * diff)), 2.0 * diff / diff.size


def mae(pred, y):
    diff = pred - y
    return float(np.mean(np.abs(diff))), np.sign(diff) / diff.size


LOSSES = {
    "categorical_crossentropy": categorical_crossentropy,
    "mse": mse,
    "mae": mae,
}


def get_loss(name):
    if callable(name):
        return name
    try:
        return LOSSES[name]
    except KeyError:
        raise ValueError(f"unknown loss {name!r}") from None


# ---------------------------------------------------------------------------
# metrics (higher is better)
# ---------------------------------------------------------------------------


def accuracy(logits, onehot) -> float:
    return float(np.mean(
        logits.argmax(axis=-1) == np.asarray(onehot).argmax(axis=-1)
    ))


def r2(pred, y) -> float:
    # metric path, not training: float64 accumulation keeps R^2 stable
    y = np.asarray(y, dtype=np.float64)          # lint: ignore[R001]
    pred = np.asarray(pred, dtype=np.float64)    # lint: ignore[R001]
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return 0.0
    return 1.0 - ss_res / ss_tot


METRICS = {"accuracy": accuracy, "r2": r2}


def get_metric(name):
    try:
        return METRICS[name]
    except KeyError:
        raise ValueError(f"unknown metric {name!r}") from None
