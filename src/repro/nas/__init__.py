"""NAS framework: spaces, strategies, estimation (the DeepHyper substitute)."""

from .estimation import (
    FAILURE_SCORE,
    EstimationResult,
    FullTrainResult,
    estimate_candidate,
    full_train,
)
from .operations import (
    ActivationOp,
    AvgPool1DOp,
    AvgPool2DOp,
    BatchNormOp,
    ConcatenateOp,
    Conv1DOp,
    Conv2DOp,
    DenseOp,
    DropoutOp,
    FlattenOp,
    IdentityOp,
    MaxPool1DOp,
    MaxPool2DOp,
    Op,
)
from .problem import Problem
from .space import SearchSpace
from .strategies import (
    Proposal,
    RandomSearch,
    RegularizedEvolution,
    Strategy,
    is_failure_score,
)

__all__ = [
    "Op", "IdentityOp", "DenseOp", "Conv1DOp", "Conv2DOp",
    "MaxPool1DOp", "MaxPool2DOp", "AvgPool1DOp", "AvgPool2DOp",
    "BatchNormOp", "ActivationOp", "DropoutOp", "FlattenOp", "ConcatenateOp",
    "SearchSpace", "Problem",
    "Strategy", "Proposal", "RandomSearch", "RegularizedEvolution",
    "is_failure_score",
    "estimate_candidate", "full_train", "EstimationResult", "FullTrainResult",
    "FAILURE_SCORE",
]
