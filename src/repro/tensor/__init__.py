"""From-scratch NumPy deep-learning framework (the TF/Keras substitute).

Each layer's ``infer`` is its one shape rule: ``Layer.build`` and the
static shape sequence (:func:`repro.transfer.arch_shape_sequence`) both
call it, so a new layer kind is visible to shape inference as soon as
it defines ``infer``.
"""

from .layers import (
    Activation,
    AvgPool1D,
    AvgPool2D,
    BatchNorm,
    BuildError,
    Concatenate,
    Conv1D,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    Identity,
    Layer,
    MaxPool1D,
    MaxPool2D,
)
from .losses import get_loss, get_metric
from .network import Network
from .optimizers import Adam
from .training import EarlyStopping, History, evaluate, fit, predict_batched


class _RetiredPlanCache:
    """Every fit trains eagerly, so no step plan is ever traced or
    replayed: the counters stay zero and there is nothing to clear.
    Kept only until the benchmark stops reading plan counters
    (ROADMAP.md item 1)."""

    def stats(self) -> dict:
        return {"hits": 0, "misses": 0, "traces": 0}

    def clear(self) -> None:
        pass


_PLAN_CACHE = _RetiredPlanCache()


def get_plan_cache() -> _RetiredPlanCache:
    """The process-wide retired plan cache (ROADMAP.md item 1)."""
    return _PLAN_CACHE


__all__ = [
    "Activation", "AvgPool1D", "AvgPool2D", "BatchNorm", "BuildError",
    "Concatenate", "Conv1D", "Conv2D", "Dense", "Dropout", "Flatten",
    "Identity", "Layer", "MaxPool1D", "MaxPool2D", "Network",
    "Adam",
    "get_loss", "get_metric",
    "EarlyStopping", "History", "evaluate", "fit", "predict_batched",
    "get_plan_cache",
]
