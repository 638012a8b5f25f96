"""estimate_candidate / full_train."""

import numpy as np

from repro.analysis import analyze
from repro.nas import (
    FAILURE_SCORE,
    Conv2DOp,
    DenseOp,
    FlattenOp,
    Problem,
    SearchSpace,
    estimate_candidate,
    full_train,
)


def test_estimate_returns_finite_score(space, problem):
    seq = space.validate_seq((1, 1, 0))
    result = estimate_candidate(problem, seq, seed=0)
    assert result.ok
    assert np.isfinite(result.score)
    assert result.epochs == problem.estimation_epochs
    assert result.num_params > 0
    assert result.weights is None
    assert result.transfer_stats is None


def test_estimate_is_deterministic(space, problem):
    seq = space.validate_seq((2, 1, 1))
    a = estimate_candidate(problem, seq, seed=3)
    b = estimate_candidate(problem, seq, seed=3)
    assert a.score == b.score


def test_keep_weights_returns_trained_weights(space, problem):
    seq = space.validate_seq((1, 0, 1))
    result = estimate_candidate(problem, seq, seed=0, keep_weights=True)
    assert result.ok
    assert isinstance(result.weights, dict)
    fresh = problem.build_model(seq, rng=0).get_weights()
    assert set(result.weights) == set(fresh)
    assert any(not np.array_equal(result.weights[k], fresh[k])
               for k in fresh)              # training moved the weights


def test_provider_weights_produce_transfer_stats(space, problem):
    parent_seq = space.validate_seq((1, 1, 1))
    parent = estimate_candidate(problem, parent_seq, seed=0,
                                keep_weights=True)
    child_seq = space.mutate(parent_seq, np.random.default_rng(0))
    warm = estimate_candidate(problem, child_seq, seed=1,
                              provider_weights=parent.weights,
                              matcher="lcs")
    assert warm.ok
    assert warm.transfer_stats is not None
    assert warm.transfer_stats.matcher == "lcs"


def test_failure_score_sentinel():
    assert FAILURE_SCORE < -100.0


def test_full_train_early_stopping_protocol(space, problem):
    seq = space.validate_seq((1, 1, 0))
    result = full_train(problem, seq, seed=0)
    assert 1 <= result.epochs <= problem.max_epochs
    assert np.isfinite(result.score)
    assert np.isfinite(result.early_stopped_score)
    assert result.num_params > 0
    assert len(result.history.val_score) == problem.max_epochs


def test_full_train_accepts_initial_weights(space, problem):
    seq = space.validate_seq((1, 1, 0))
    est = estimate_candidate(problem, seq, seed=0, keep_weights=True)
    warm = full_train(problem, seq, seed=0, initial_weights=est.weights,
                      max_epochs=2)
    cold = full_train(problem, seq, seed=0, max_epochs=2)
    assert warm.score != cold.score          # warm start changed the run


def test_even_same_conv_fails_at_build_not_mid_training(dataset):
    space = SearchSpace("even-kernel", (6, 6, 2))
    space.add_fixed(Conv2DOp(3, kernel_size=2), name="conv")
    space.add_fixed(FlattenOp(), name="flatten")
    space.add_fixed(DenseOp(4), name="head")
    seq = space.validate_seq(())
    problem = Problem("even-kernel", space, dataset, batch_size=16,
                      estimation_epochs=1)
    result = estimate_candidate(problem, seq, seed=0)
    assert not result.ok
    assert result.score == FAILURE_SCORE
    assert "odd kernel" in result.error
    assert not analyze(space, seq).ok    # the pre-flight gate agrees
