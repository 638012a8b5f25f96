"""Minibatch training loop, validation, History, EarlyStopping.

The early-stopping rule follows the paper (Section VIII-B): training
stops once the validation objective has failed to improve on its best
value by more than ``threshold`` for ``patience`` consecutive epochs,
with a floor of ``min_epochs`` epochs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .losses import get_loss, get_metric
from .optimizers import Adam


@dataclass
class History:
    loss: list[float] = field(default_factory=list)
    val_score: list[float] = field(default_factory=list)

    @property
    def epochs(self) -> int:
        return len(self.val_score)


class EarlyStopping:
    """Stop when improvement over the best-so-far stays below threshold."""

    def __init__(self, threshold: float = 0.005, patience: int = 2,
                 min_epochs: int = 3):
        self.threshold = threshold
        self.patience = patience
        self.min_epochs = min_epochs

    def stop_epoch(self, scores: list[float]) -> Optional[int]:
        """First 1-based epoch at which training would stop, else None."""
        best = -np.inf
        stalled = 0
        for e, s in enumerate(scores, start=1):
            if s > best + self.threshold:
                best = s
                stalled = 0
            else:
                stalled += 1
            if e >= self.min_epochs and stalled >= self.patience:
                return e
        return None


def _take(x, idx):
    if isinstance(x, (list, tuple)):
        return [a[idx] for a in x]
    return x[idx]


#: validation forward passes run in chunks of this many rows so a full
#: dataset never materialises one giant activation set per layer
EVAL_BATCH_SIZE = 256


def predict_batched(network, x, batch_size: int = EVAL_BATCH_SIZE):
    """Forward ``x`` in minibatches; returns the concatenated predictions.

    Only the (small) per-batch predictions are kept — intermediate
    activations are released between chunks, so peak memory is bounded by
    ``batch_size`` rather than the dataset size.
    """
    n = (x[0] if isinstance(x, (list, tuple)) else x).shape[0]
    if n <= batch_size:
        return network.forward(x, training=False)
    preds = [
        network.forward(_take(x, slice(s, s + batch_size)), training=False)
        for s in range(0, n, batch_size)
    ]
    return np.concatenate(preds, axis=0)


def evaluate(network, x, y, metric,
             batch_size: int = EVAL_BATCH_SIZE) -> float:
    """Metric of ``network`` on ``(x, y)``, computed from batched forward
    passes.  The metric itself sees the full prediction array, so
    non-decomposable metrics (R^2) stay exact."""
    pred = predict_batched(network, x, batch_size)
    return float(get_metric(metric)(pred, y))


def fit(network, x_train, y_train, *, x_val=None, y_val=None,
        epochs: int = 1, batch_size: int = 32, loss="categorical_crossentropy",
        metric="accuracy", learning_rate: float = 1e-3,
        early_stopping: EarlyStopping | None = None, rng=0) -> History:
    """Train ``network`` in place with Adam at a fixed ``learning_rate``;
    returns a History with per-epoch training loss and validation score.

    ``x_train`` may be a single array or a list of arrays (multi-input).
    When ``early_stopping`` is given, training stops at the rule's epoch.
    Each epoch permutes the training rows once and trains on contiguous
    slices of that copy.
    """
    rng = np.random.default_rng(rng) if not isinstance(
        rng, np.random.Generator) else rng
    loss_fn = get_loss(loss)
    opt = Adam(network, learning_rate)
    n = y_train.shape[0]
    history = History()
    for _ in range(epochs):
        epoch_loss, nb = 0.0, 0
        order = rng.permutation(n)
        xs, ys = _take(x_train, order), y_train[order]
        for start in range(0, n, batch_size):
            rows = slice(start, start + batch_size)
            logits = network.forward(_take(xs, rows), training=True)
            lval, grad = loss_fn(logits, ys[rows])
            network.backward(grad)
            opt.step()
            epoch_loss += float(lval)
            nb += 1
        history.loss.append(epoch_loss / max(nb, 1))
        if x_val is not None:
            history.val_score.append(
                evaluate(network, x_val, y_val, metric))
            if early_stopping is not None:
                if early_stopping.stop_epoch(history.val_score) is not None:
                    break
    return history
