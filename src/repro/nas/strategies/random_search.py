"""Random search: uniform i.i.d. samples of the space."""

from __future__ import annotations

from .base import Proposal, Strategy


class RandomSearch(Strategy):
    def ask(self) -> Proposal:
        return Proposal(self.space.sample(self.rng))

    def tell(self, candidate_id, arch_seq, score) -> None:
        pass
