#!/usr/bin/env python
"""Defining your own search space and inspecting LP/LCS weight transfer.

Walks through the paper's Figure 3 scenario explicitly: a provider and a
receiver convolutional model where the receiver has one extra conv layer.
LP (longest prefix) can only transfer the leading layers; LCS (longest
common subsequence) additionally recovers the matching tail around the
insertion.

Run:  python examples/custom_search_space.py
"""

from __future__ import annotations

import numpy as np

from repro.nas import (
    Conv2DOp,
    DenseOp,
    FlattenOp,
    IdentityOp,
    SearchSpace,
)
from repro.transfer import (
    lcs_match,
    longest_prefix_match,
    shape_sequence,
    transfer_weights,
)


def build_space() -> SearchSpace:
    """One variable node decides whether the extra conv layer exists."""
    space = SearchSpace("figure3", (10, 10, 3))
    space.add_fixed(
        Conv2DOp(16, 3, activation="relu"), name="conv_a"
    )
    space.add_variable(
        "maybe_conv", [IdentityOp(), Conv2DOp(16, 3, activation="relu")]
    )
    space.add_fixed(FlattenOp(), name="flatten")
    space.add_fixed(DenseOp(10), name="head")
    return space


def show(title: str, seq) -> None:
    print(f"  {title}:")
    for sig in seq:
        print(f"    {sig}")


def main() -> None:
    space = build_space()
    rng = np.random.default_rng(0)

    provider = space.build_network((0,), rng, name="provider")   # no extra conv
    receiver = space.build_network((1,), rng, name="receiver")   # extra conv

    print("shape sequences (one signature per parameterized layer):")
    show("provider", shape_sequence(provider))
    show("receiver", shape_sequence(receiver))

    p_seq = shape_sequence(provider)
    r_seq = shape_sequence(receiver)
    lp = longest_prefix_match(p_seq, r_seq)
    lcs = lcs_match(p_seq, r_seq)
    print(f"\nLP  matches {lp.length} layer(s): {lp.pairs}")
    print(f"LCS matches {lcs.length} layer(s): {lcs.pairs}")
    assert lcs.length > lp.length, "LCS must recover the tail past the insertion"

    # actually move the weights and verify what changed
    provider_weights = provider.get_weights()
    for matcher in ("lp", "lcs"):
        fresh = space.build_network((1,), np.random.default_rng(99))
        stats = transfer_weights(fresh, provider_weights, matcher=matcher)
        print(f"\n{matcher.upper()} transfer: {stats.num_layers_transferred} layers, "
              f"{stats.num_transferred} tensors, coverage {stats.coverage:.0%}")
        head_moved = "head_dense.kernel" in stats.transferred_names
        print(f"  final dense layer transferred: {head_moved}")

    print("\nAs in the paper's Figure 3: LP stops at the inserted conv layer;")
    print("LCS additionally transfers the final dense layer.")


if __name__ == "__main__":
    main()
