"""Strategy protocol: the ask/tell interface the schedulers drive.

``ask()`` returns a :class:`Proposal`; the scheduler evaluates it and
calls ``tell(candidate_id, arch_seq, score)`` when the result lands.
Strategies must tolerate several ``ask()`` calls before the matching
``tell`` (asynchronous clusters evaluate many candidates in flight).
Nothing screens a proposal before it is evaluated: a candidate that
cannot be built fails at build time, and the strategy is told
``FAILURE_SCORE`` for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..estimation import FAILURE_SCORE


def is_failure_score(score) -> bool:
    """True for the FAILURE_SCORE sentinel (and anything at or below it,
    or non-finite) — scores the scheduler books for contained faults and
    unbuildable candidates.  Strategies must keep such records out of
    their learning state: a failed candidate has no checkpoint and must
    never be selected as a mutation parent or weight provider."""
    score = float(score)
    return not np.isfinite(score) or score <= FAILURE_SCORE


@dataclass(frozen=True)
class Proposal:
    arch_seq: tuple
    parent_id: Optional[int] = None   # provider when evolution bred it


class Strategy:
    def __init__(self, space, rng=None):
        self.space = space
        self.rng = np.random.default_rng(rng) if not isinstance(
            rng, np.random.Generator) else rng

    def ask(self) -> Proposal:
        raise NotImplementedError

    def tell(self, candidate_id: int, arch_seq, score: float) -> None:
        raise NotImplementedError

    def restore(self, records) -> None:
        """Rebuild ask/tell state from replayed trace records — the
        resume path (``run_search(resume=...)``) calls this with every
        journaled completion, in completion order, before the search
        continues.  The default replays them through :meth:`tell`;
        strategies with ask-side counters override to restore those too."""
        for r in records:
            self.tell(r.candidate_id, r.arch_seq, r.score)
