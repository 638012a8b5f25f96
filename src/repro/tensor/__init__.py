"""From-scratch NumPy deep-learning framework (the TF/Keras substitute).

Each layer's ``infer`` is its one shape rule: ``Layer.build`` and the
static analyzer (:mod:`repro.analysis`) both call it, so a new layer
kind is visible to shape inference as soon as it defines ``infer``.
"""

from .engine import (
    PlanCache,
    PlanUnsupportedError,
    StepPlan,
    get_plan_cache,
)
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
from .optimizers import SGD, Adam, Optimizer, RMSProp, get_optimizer
from .schedules import CosineDecay, ExponentialDecay, StepDecay
from .training import EarlyStopping, History, evaluate, fit, predict_batched


__all__ = [
    "Activation", "AvgPool1D", "AvgPool2D", "BatchNorm", "BuildError",
    "Concatenate", "Conv1D", "Conv2D", "Dense", "Dropout", "Flatten",
    "Identity", "Layer", "MaxPool1D", "MaxPool2D", "Network",
    "Adam", "SGD", "RMSProp", "Optimizer", "get_optimizer",
    "get_loss", "get_metric",
    "EarlyStopping", "History", "evaluate", "fit", "predict_batched",
    "PlanCache", "PlanUnsupportedError", "StepPlan", "get_plan_cache",
    "StepDecay", "ExponentialDecay", "CosineDecay",
]
