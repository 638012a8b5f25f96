"""Partial-training candidate estimation (paper Section V-A).

``estimate_candidate`` builds the candidate, optionally warm-starts it
from provider weights through a matcher, trains for the (short)
estimation budget and scores the validation objective.  Architectures the
space cannot instantiate score :data:`FAILURE_SCORE` — the failure path
the scheduler and strategies must tolerate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..tensor import BuildError, fit
from ..tensor.training import evaluate
from ..transfer import TransferStats, transfer_weights

#: Sentinel score for candidates that fail to build/train.
FAILURE_SCORE = -1.0e3


@dataclass
class EstimationResult:
    ok: bool
    score: float
    epochs: int = 0
    num_params: int = 0
    weights: Optional[dict] = None
    transfer_stats: Optional[TransferStats] = None
    error: Optional[str] = None


def estimate_candidate(problem, arch_seq, *, seed: int = 0,
                       epochs: Optional[int] = None,
                       provider_weights: Optional[dict] = None,
                       matcher: str = "lcs",
                       keep_weights: bool = False) -> EstimationResult:
    """One partial-training evaluation of ``arch_seq``.

    ``provider_weights`` (if given) are selectively transferred into the
    fresh model before it initialises, so the matched tensors are never
    drawn (DESIGN.md "Transfer before init"); ``keep_weights`` returns
    the trained weights so the caller can checkpoint them.  They are
    views of the model's own buffer, not copies: nothing else holds the
    model, so the write-behind writer's snapshot is the one defensive
    copy.
    """
    epochs = problem.estimation_epochs if epochs is None else epochs
    ds = problem.dataset
    try:
        model = problem.build_model(arch_seq, rng=seed)
    except BuildError as exc:
        return EstimationResult(ok=False, score=FAILURE_SCORE,
                                error=str(exc))
    stats = None
    if provider_weights is not None:
        stats = transfer_weights(model, provider_weights, matcher=matcher)
    try:
        fit(
            model, ds.x_train, ds.y_train,
            epochs=epochs, batch_size=problem.batch_size,
            loss=problem.loss, metric=problem.objective,
            learning_rate=problem.learning_rate,
            rng=np.random.default_rng(seed + 1),
        )
        score = evaluate(model, ds.x_val, ds.y_val, problem.objective)
    except (FloatingPointError, ValueError) as exc:
        return EstimationResult(ok=False, score=FAILURE_SCORE,
                                num_params=model.num_parameters(),
                                transfer_stats=stats, error=str(exc))
    if not np.isfinite(score):
        return EstimationResult(ok=False, score=FAILURE_SCORE,
                                num_params=model.num_parameters(),
                                transfer_stats=stats, error="non-finite score")
    return EstimationResult(
        ok=True, score=float(score), epochs=epochs,
        num_params=model.num_parameters(),
        weights=model.get_weights(copy=False) if keep_weights else None,
        transfer_stats=stats,
    )


@dataclass
class FullTrainResult:
    """Full training with the paper's early-stopping analysis.

    ``epochs``/``score`` follow the early-stopping protocol: ``epochs`` is
    the epoch the §VIII-B rule stops at, ``early_stopped_score`` the
    objective there, and ``score`` the objective after the full budget
    (the "fully trained" column of Table III)."""

    epochs: int
    score: float
    early_stopped_score: float
    num_params: int
    history: object


def full_train(problem, arch_seq, *, seed: int = 0,
               initial_weights: Optional[dict] = None,
               max_epochs: Optional[int] = None) -> FullTrainResult:
    """Train ``arch_seq`` for the full budget, recording when the paper's
    early-stopping rule would have stopped.

    ``initial_weights`` warm-starts the model (e.g. from the candidate's
    partial-training checkpoint, as in the paper's phase 2)."""
    from ..tensor import EarlyStopping

    max_epochs = problem.max_epochs if max_epochs is None else max_epochs
    ds = problem.dataset
    model = problem.build_model(arch_seq, rng=seed)
    if initial_weights is not None:
        transfer_weights(model, initial_weights, matcher="lcs")
    history = fit(
        model, ds.x_train, ds.y_train, x_val=ds.x_val, y_val=ds.y_val,
        epochs=max_epochs, batch_size=problem.batch_size,
        loss=problem.loss, metric=problem.objective,
        learning_rate=problem.learning_rate,
        rng=np.random.default_rng(seed + 1),
    )
    rule = EarlyStopping(problem.es_threshold, problem.es_patience,
                         problem.es_min_epochs)
    stop = rule.stop_epoch(history.val_score)
    epochs = stop if stop is not None else len(history.val_score)
    return FullTrainResult(
        epochs=epochs,
        score=float(history.val_score[-1]),
        early_stopped_score=float(history.val_score[epochs - 1]),
        num_params=model.num_parameters(),
        history=history,
    )
