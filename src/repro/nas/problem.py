"""``Problem`` = search space + dataset + loss + objective (DeepHyper-style)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..tensor import Network
from .space import SearchSpace


@dataclass
class Problem:
    name: str
    space: SearchSpace
    dataset: object                 # repro.apps.datasets.Dataset
    learning_rate: float = 1e-3
    batch_size: int = 32
    estimation_epochs: int = 1      # partial-training budget (paper: 1)
    max_epochs: int = 10            # full-training budget
    es_threshold: float = 0.005     # early-stopping threshold (§VIII-B)
    es_patience: int = 2
    es_min_epochs: int = 3
    extra: dict = field(default_factory=dict)

    @property
    def loss(self) -> str:
        return self.dataset.loss

    @property
    def objective(self) -> str:
        return self.dataset.metric

    def build_model(self, arch_seq, rng: Optional[object] = 0,
                    name: Optional[str] = None) -> Network:
        """Materialise the candidate network (seeded init by default)."""
        return self.space.build_network(arch_seq, rng, name=name)
