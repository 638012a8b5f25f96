"""Regularized evolution (the paper's Algorithm 1).

Population = FIFO of the last ``population_size`` completed candidates.
Each ``ask`` after the random warmup samples ``sample_size`` members,
mutates the best one at ``num_mutations`` nodes (d = num_mutations; the
paper uses 1, so the parent is a provider at distance 1 by construction)
and records the parent id so the scheduler can use the parent as the
weight provider.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .base import Proposal, Strategy, is_failure_score


@dataclass(frozen=True)
class _Member:
    candidate_id: int
    arch_seq: tuple
    score: float


class RegularizedEvolution(Strategy):
    def __init__(self, space, rng=None, population_size: int = 16,
                 sample_size: int = 8, num_mutations: int = 1):
        super().__init__(space, rng)
        if not 1 <= sample_size <= population_size:
            raise ValueError(
                f"need 1 <= sample_size <= population_size, got "
                f"sample_size={sample_size}, "
                f"population_size={population_size}")
        self.population_size = population_size
        self.sample_size = sample_size
        self.num_mutations = num_mutations
        self.population: deque[_Member] = deque(maxlen=population_size)
        self._asked = 0

    def ask(self) -> Proposal:
        self._asked += 1
        # random warmup until one full population has been *submitted*
        # (not completed — the cluster may have many evaluations in flight)
        if self._asked <= self.population_size or len(self.population) == 0:
            return Proposal(self.space.sample(self.rng))
        k = min(self.sample_size, len(self.population))
        idx = self.rng.choice(len(self.population), size=k, replace=False)
        sample = [self.population[int(i)] for i in idx]
        parent = max(sample, key=lambda m: m.score)
        return Proposal(
            self.space.mutate(parent.arch_seq, self.rng,
                              num_mutations=self.num_mutations),
            parent_id=parent.candidate_id,
        )

    def tell(self, candidate_id, arch_seq, score) -> None:
        # failed evaluations stay out of the FIFO: a FAILURE_SCORE member
        # has no checkpoint, and a sample of only failures would breed
        # from (and point the scheduler's provider selection at) a
        # candidate that never trained.  The trace still records the
        # failure; the population only learns from real scores.
        if is_failure_score(score):
            return
        self.population.append(
            _Member(candidate_id, tuple(arch_seq), float(score))
        )

    def restore(self, records) -> None:
        """Resume: refill the population FIFO *and* fast-forward the
        ask counter past the warmup, so a restored run keeps evolving
        instead of re-entering random warmup sampling."""
        super().restore(records)
        if records:
            self._asked = max(self._asked,
                              max(r.candidate_id for r in records) + 1)
