"""Ask/tell strategies: random search and regularized evolution."""

import numpy as np
import pytest

from repro.nas import Proposal, RandomSearch, RegularizedEvolution


def test_random_search_never_sets_parent(space):
    strategy = RandomSearch(space, rng=0)
    for cid in range(10):
        p = strategy.ask()
        assert isinstance(p, Proposal)
        assert p.parent_id is None
        assert len(p.arch_seq) == space.num_variable_nodes
        strategy.tell(cid, p.arch_seq, 0.5)


def test_evolution_warms_up_randomly_then_breeds(space):
    strategy = RegularizedEvolution(space, rng=0, population_size=4,
                                    sample_size=2)
    for cid in range(4):
        p = strategy.ask()
        assert p.parent_id is None           # random warmup
        strategy.tell(cid, p.arch_seq, float(cid))
    bred = strategy.ask()
    assert bred.parent_id is not None
    parent = next(m for m in strategy.population
                  if m.candidate_id == bred.parent_id)
    assert space.distance(parent.arch_seq, bred.arch_seq) == 1


def test_evolution_best_tournament_prefers_high_scores(space):
    strategy = RegularizedEvolution(space, rng=0, population_size=4,
                                    sample_size=4)
    seqs = [space.sample(np.random.default_rng(i)) for i in range(4)]
    for cid, seq in enumerate(seqs):
        strategy.ask()
        strategy.tell(cid, seq, 1.0 if cid == 2 else 0.0)
    p = strategy.ask()
    assert p.parent_id == 2                  # full-sample tournament


def test_evolution_population_ages_out(space):
    strategy = RegularizedEvolution(space, rng=0, population_size=3,
                                    sample_size=1)
    for cid in range(10):
        p = strategy.ask()
        strategy.tell(cid, p.arch_seq, 0.0)
    assert len(strategy.population) == 3
    assert [m.candidate_id for m in strategy.population] == [7, 8, 9]


def test_evolution_tolerates_ask_before_tell(space):
    strategy = RegularizedEvolution(space, rng=0, population_size=3,
                                    sample_size=2)
    proposals = [strategy.ask() for _ in range(8)]   # 8 in flight, 0 told
    assert all(p.parent_id is None for p in proposals)
    strategy.tell(0, proposals[0].arch_seq, 0.1)
    p = strategy.ask()                                # now it can breed
    assert p.parent_id == 0


def test_evolution_validates_configuration(space):
    """``1 <= sample_size <= population_size``: a zero-sized sample has
    no parent to breed from, and a zero-sized population never breeds."""
    for population_size, sample_size in ((2, 4), (2, 0), (0, 0), (2, -1)):
        with pytest.raises(ValueError, match="sample_size"):
            RegularizedEvolution(space, population_size=population_size,
                                 sample_size=sample_size)
    RegularizedEvolution(space, population_size=1, sample_size=1)
