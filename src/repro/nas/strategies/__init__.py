"""Search strategies: random search and regularized evolution."""

from .base import Proposal, Strategy, is_failure_score
from .evolution import RegularizedEvolution
from .random_search import RandomSearch

__all__ = [
    "Proposal",
    "Strategy",
    "RandomSearch",
    "RegularizedEvolution",
    "is_failure_score",
]
