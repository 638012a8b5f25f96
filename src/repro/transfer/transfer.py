"""Selective weight transfer: copy matched layers provider -> receiver.

``transfer_weights(receiver, provider_weights, matcher)`` aligns the two
shape sequences with LP or LCS and copies every tensor of each matched
layer (shapes are identical by construction of the match).  Unmatched
receiver layers keep their fresh initialisation — exactly the paper's
selective scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Mapping, Union

import numpy as np

from .matching import MATCHERS, Match, get_matcher
from .shapeseq import group_layers


@dataclass
class TransferStats:
    """What moved.  ``coverage`` is the fraction of the receiver's
    parameter *elements* that received provider values."""

    matcher: str
    provider_layers: int = 0
    receiver_layers: int = 0
    receiver_tensors: int = 0
    receiver_elements: int = 0
    num_layers_transferred: int = 0
    num_transferred: int = 0          # tensors copied
    transferred_elements: int = 0
    transferred_names: tuple = field(default_factory=tuple)

    @property
    def coverage(self) -> float:
        if self.receiver_elements == 0:
            return 0.0
        return self.transferred_elements / self.receiver_elements

    @property
    def transferred(self) -> bool:
        return self.num_transferred > 0

    @property
    def copied_bytes(self) -> int:
        """Bytes materialised by copy-transfer (all repo tensors are
        float32)."""
        return int(self.transferred_elements) * 4


@lru_cache(maxsize=4096)
def _cached_match(matcher_name: str, provider_seq: tuple,
                  receiver_seq: tuple) -> Match:
    """Alignments memoized by (matcher, shape sequences).

    Shape sequences are hashable tuples-of-tuples (the analyzer's
    ``signature_key`` digests the same payload), and search loops
    re-match the same provider/receiver shapes constantly — evolution
    mutates one node at a time, so sequences repeat across the run.
    """
    return MATCHERS[matcher_name](provider_seq, receiver_seq)


def match_cache_info():
    """Cache statistics of the LP/LCS match LRU."""
    return _cached_match.cache_info()


def transfer_weights(receiver, provider_weights: Mapping[str, np.ndarray],
                     matcher: Union[str, Callable] = "lcs") -> TransferStats:
    """Copy matched layers of ``provider_weights`` into ``receiver``.

    ``receiver`` — a built Network; ``provider_weights`` — an ordered
    ``{"layer.param": array}`` mapping (e.g. ``Network.get_weights()`` or
    ``CheckpointStore.load()``).  Returns :class:`TransferStats`.
    """
    if matcher == "partial":  # extension: Net2Net-style overlap copying
        from .partial import partial_transfer_weights
        return partial_transfer_weights(receiver, provider_weights)
    match_name = matcher if isinstance(matcher, str) else getattr(
        matcher, "__name__", "custom")
    matcher_fn = get_matcher(matcher)

    provider_groups = group_layers(provider_weights)
    receiver_layers = receiver.parameterized_layers()
    provider_seq = tuple(sig for _, sig in provider_groups)
    receiver_seq = tuple(layer.signature() for layer in receiver_layers)

    stats = TransferStats(
        matcher=match_name,
        provider_layers=len(provider_groups),
        receiver_layers=len(receiver_layers),
        receiver_tensors=sum(len(l.params) for l in receiver_layers),
        receiver_elements=sum(
            int(p.size) for l in receiver_layers for p in l.params.values()
        ),
    )

    if isinstance(matcher, str) and matcher in MATCHERS:
        match = _cached_match(matcher, provider_seq, receiver_seq)
    else:
        match = matcher_fn(provider_seq, receiver_seq)
    moved_names = []
    for i, j in match.pairs:
        src_names, _ = provider_groups[i]
        dst_layer = receiver_layers[j]
        for src_name, (pname, dst) in zip(src_names, dst_layer.params.items()):
            src = np.asarray(provider_weights[src_name])
            if src.shape != dst.shape:  # defensive; signatures matched
                raise ValueError(
                    f"matched layer shape mismatch: {src_name} {src.shape} "
                    f"-> {dst_layer.name}.{pname} {dst.shape}"
                )
            dst_layer.params[pname] = src.astype(dst.dtype)
            moved_names.append(f"{dst_layer.name}.{pname}")
            stats.num_transferred += 1
            stats.transferred_elements += int(src.size)
        stats.num_layers_transferred += 1
    stats.transferred_names = tuple(moved_names)
    return stats
