"""From-scratch NumPy deep-learning framework (the TF/Keras substitute).

Besides the layer/optimizer/training classes, this package owns the
**op metadata registry** (:data:`OP_METADATA`): one entry per layer
kind, recording the layer class, its parameter-tensor names in
declaration order, and whether the op is a shape-passthrough.  The
static analyzer (:mod:`repro.analysis`) interprets architecture
sequences against this registry, so a new layer kind registered here is
automatically visible to shape/dtype inference.
"""

from dataclasses import dataclass
from typing import Optional

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


@dataclass(frozen=True)
class OpMeta:
    """Static metadata for one layer kind.

    ``param_names`` is the layer's parameter-tensor declaration order —
    the order :meth:`Layer.signature` and the checkpoint/transfer
    machinery observe.  ``trainable`` is ``None`` when every parameter
    is trained.  ``passthrough`` marks ops whose output shape equals
    their input shape.
    """

    kind: str
    layer_cls: type
    param_names: tuple = ()
    trainable: Optional[tuple] = None
    passthrough: bool = False

    @property
    def parameterized(self) -> bool:
        return bool(self.param_names)


#: kind -> OpMeta, for every op the NAS spaces can choose.
OP_METADATA: dict = {
    meta.kind: meta
    for meta in (
        OpMeta("identity", Identity, passthrough=True),
        OpMeta("flatten", Flatten),
        OpMeta("activation", Activation, passthrough=True),
        OpMeta("dropout", Dropout, passthrough=True),
        OpMeta("dense", Dense, ("kernel", "bias")),
        OpMeta("conv2d", Conv2D, ("kernel", "bias")),
        OpMeta("conv1d", Conv1D, ("kernel", "bias")),
        OpMeta("maxpool2d", MaxPool2D, passthrough=False),
        OpMeta("avgpool2d", AvgPool2D, passthrough=False),
        OpMeta("maxpool1d", MaxPool1D, passthrough=False),
        OpMeta("avgpool1d", AvgPool1D, passthrough=False),
        OpMeta("batchnorm", BatchNorm,
               ("gamma", "beta", "moving_mean", "moving_var"),
               trainable=("gamma", "beta")),
        OpMeta("concat", Concatenate),
    )
}


def op_metadata(kind: str) -> OpMeta:
    """Registry lookup; raises ``ValueError`` for unknown kinds."""
    try:
        return OP_METADATA[kind]
    except KeyError:
        raise ValueError(
            f"unknown op kind {kind!r} (known: {sorted(OP_METADATA)})"
        ) from None


__all__ = [
    "Activation", "AvgPool1D", "AvgPool2D", "BatchNorm", "BuildError",
    "Concatenate", "Conv1D", "Conv2D", "Dense", "Dropout", "Flatten",
    "Identity", "Layer", "MaxPool1D", "MaxPool2D", "Network",
    "Adam", "SGD", "RMSProp", "Optimizer", "get_optimizer",
    "get_loss", "get_metric",
    "EarlyStopping", "History", "evaluate", "fit", "predict_batched",
    "PlanCache", "PlanUnsupportedError", "StepPlan", "get_plan_cache",
    "StepDecay", "ExponentialDecay", "CosineDecay",
    "OpMeta", "OP_METADATA", "op_metadata",
]
