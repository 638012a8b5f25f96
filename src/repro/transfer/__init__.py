"""THE CONTRIBUTION: shape sequences, LP/LCS matching, weight transfer."""

from .matching import Match, get_matcher, lcs_match, longest_prefix_match
from .partial import partial_transfer_weights
from .policy import (
    NearestProvider,
    ParentProvider,
    ProviderPolicy,
    RandomProvider,
    get_policy,
)
from .shapeseq import (
    arch_shape_sequence,
    group_layers,
    shape_sequence,
)
from .transfer import TransferStats, transfer_weights

__all__ = [
    "Match", "lcs_match", "longest_prefix_match", "get_matcher",
    "shape_sequence", "arch_shape_sequence", "group_layers",
    "TransferStats", "transfer_weights", "partial_transfer_weights",
    "ProviderPolicy", "ParentProvider", "NearestProvider", "RandomProvider",
    "get_policy",
]
