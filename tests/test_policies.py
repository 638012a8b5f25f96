"""Provider-selection policies."""

import numpy as np
import pytest

from repro.cluster import TraceRecord
from repro.nas import Proposal
from repro.transfer import (
    NearestProvider,
    ParentProvider,
    RandomProvider,
    get_policy,
)


def record(cid, seq, score=0.5):
    return TraceRecord(candidate_id=cid, arch_seq=tuple(seq), score=score)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def test_parent_provider_returns_parent(space, rng):
    policy = ParentProvider()
    evaluated = [record(0, (0, 0, 0)), record(1, (1, 0, 0))]
    assert policy.select(Proposal((1, 1, 0), parent_id=1),
                         evaluated, rng) == 1
    assert policy.select(Proposal((1, 1, 0), parent_id=None),
                         evaluated, rng) is None


def test_parent_provider_trusts_the_proposal(rng):
    # The scheduler guards with store.exists(); the policy itself just
    # forwards whatever parent the strategy recorded.
    policy = ParentProvider()
    assert policy.select(Proposal((1, 1, 0), parent_id=9),
                         [record(0, (0, 0, 0))], rng) == 9


def test_nearest_provider_minimizes_distance(space, rng):
    policy = NearestProvider(space)
    evaluated = [
        record(0, (3, 2, 1)),      # d=3 from proposal
        record(1, (1, 1, 0)),      # d=1
        record(2, (0, 0, 0)),      # d=2
    ]
    assert policy.select(Proposal((1, 1, 1)), evaluated, rng) == 1
    assert policy.select(Proposal((1, 1, 1)), [], rng) is None


def test_random_provider_selects_some_evaluated(rng):
    policy = RandomProvider()
    evaluated = [record(i, (0, 0, 0)) for i in range(5)]
    seen = {policy.select(Proposal((1, 1, 1)), evaluated, rng)
            for _ in range(30)}
    assert seen <= set(range(5))
    assert len(seen) > 1
    assert policy.select(Proposal((1, 1, 1)), [], rng) is None


def test_get_policy_by_name(space):
    assert isinstance(get_policy("parent"), ParentProvider)
    assert isinstance(get_policy("nearest", space=space), NearestProvider)
    assert isinstance(get_policy("random"), RandomProvider)
    with pytest.raises(ValueError):
        get_policy("closest")
