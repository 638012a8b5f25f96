"""Partial-shape transfer (Net2Net-flavoured extension, beyond the paper).

Where the paper's exact-shape rule skips a layer pair whose tensors merely
*differ in width*, partial transfer copies the overlapping sub-block
(``arr[:m0, :m1, ...]``) between structurally compatible layers — same
number of tensors, same ranks.  Exactly matched layers are still copied
whole first (via the LCS alignment), so partial coverage is always at
least exact coverage; the ablation benchmark measures whether the extra
coverage helps.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .matching import lcs_match
from .shapeseq import group_layers
from .transfer import TransferStats, transfer_weights


def _compatible(sig_a: tuple, sig_b: tuple) -> bool:
    if len(sig_a) != len(sig_b):
        return False
    return all(len(sa) == len(sb) for sa, sb in zip(sig_a, sig_b))


def _copy_overlap(src: np.ndarray, dst: np.ndarray) -> int:
    window = tuple(slice(0, min(a, b)) for a, b in zip(src.shape, dst.shape))
    dst[window] = src[window].astype(dst.dtype)
    return int(np.prod([s.stop for s in window])) if window else int(src.size)


def partial_transfer_weights(receiver,
                             provider_weights: Mapping[str, np.ndarray]
                             ) -> TransferStats:
    """Exact LCS transfer, then overlap-copy compatible unmatched layers.

    Unmatched provider/receiver layers are aligned greedily in sequence
    order (an increasing alignment, like the exact match).  An overlap
    overwrites only part of a tensor, so the receiver is initialised
    first."""
    receiver.initialize()
    stats = transfer_weights(receiver, provider_weights, matcher="lcs")
    stats.matcher = "partial"

    provider_groups = group_layers(provider_weights)
    receiver_layers = receiver.parameterized_layers()
    provider_seq = tuple(sig for _, sig in provider_groups)
    receiver_seq = tuple(layer.signature() for layer in receiver_layers)
    exact = lcs_match(provider_seq, receiver_seq)
    matched_p = set(exact.provider_indices())
    matched_r = set(exact.receiver_indices())

    moved = list(stats.transferred_names)
    i = 0
    for j, layer in enumerate(receiver_layers):
        if j in matched_r:
            continue
        # next unmatched, compatible provider layer at index > previous
        while i < len(provider_groups) and (
            i in matched_p or not _compatible(provider_seq[i], receiver_seq[j])
        ):
            i += 1
        if i >= len(provider_groups):
            break
        src_names, _ = provider_groups[i]
        for src_name, (pname, dst) in zip(src_names, layer.params.items()):
            src = np.asarray(provider_weights[src_name])
            copied = _copy_overlap(src, layer.params[pname])
            stats.transferred_elements += copied
            stats.num_transferred += 1
            moved.append(f"{layer.name}.{pname}")
        stats.num_layers_transferred += 1
        i += 1
    stats.transferred_names = tuple(moved)
    # overlap copies can double-count if a tensor got exact+partial writes;
    # clamp so coverage stays a fraction
    stats.transferred_elements = min(
        stats.transferred_elements, stats.receiver_elements
    )
    return stats
