"""Provider-selection policies (Section V-B's extension point).

Regularized evolution gets a provider for free — the mutation parent, at
architecture distance d = 1 by construction.  Other strategies need an
explicit policy.  A policy maps ``(proposal, evaluated, rng)`` to the
candidate id of the provider, or ``None`` for a cold start, where
``evaluated`` is the list of completed trace records (each with
``candidate_id``, ``arch_seq``, ``score``, ``ok``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class ProviderPolicy:
    name = "base"

    def select(self, proposal, evaluated, rng) -> Optional[int]:
        raise NotImplementedError


class ParentProvider(ProviderPolicy):
    """The paper's default: the mutation parent, if the strategy has one."""

    name = "parent"

    def select(self, proposal, evaluated, rng):
        return proposal.parent_id


class NearestProvider(ProviderPolicy):
    """Smallest architecture distance among evaluated candidates."""

    name = "nearest"

    def __init__(self, space):
        self.space = space

    def select(self, proposal, evaluated, rng):
        ok = [r for r in evaluated if r.ok]
        if not ok:
            return None
        dists = [self.space.distance(proposal.arch_seq, r.arch_seq) for r in ok]
        return ok[int(np.argmin(dists))].candidate_id


class RandomProvider(ProviderPolicy):
    """Any evaluated candidate, uniformly — the paper's Figure 4 setting."""

    name = "random"

    def select(self, proposal, evaluated, rng):
        ok = [r for r in evaluated if r.ok]
        if not ok:
            return None
        return ok[int(rng.integers(len(ok)))].candidate_id


def get_policy(name: str, space=None) -> ProviderPolicy:
    if name == "parent":
        return ParentProvider()
    if name == "nearest":
        if space is None:
            raise ValueError("nearest policy needs the search space")
        return NearestProvider(space)
    if name == "random":
        return RandomProvider()
    raise ValueError(f"unknown provider policy {name!r}")
