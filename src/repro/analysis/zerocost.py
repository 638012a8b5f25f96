"""Zero-cost proxies: scoring candidate architectures *at initialization*.

NASI-style admission tier between the static analyzer and partial
training (ROADMAP "multi-fidelity admission").  A
:class:`ZeroCostScorer` ranks a candidate with one forward/backward
pass of our exact backprop on a single batch — orders of magnitude
cheaper than even one estimation epoch — so the search can spend
partial training only on candidates the proxy does not confidently
rank at the bottom.

Three scorers, each computable with :mod:`repro.tensor` as-is:

- ``gradnorm`` — L2 norm of the loss gradient w.r.t. all trainable
  parameters at initialization, on one labelled batch.
- ``synflow`` — synaptic-flow saliency: parameters are replaced by
  their absolute values, an all-ones batch is forwarded (data- and
  label-agnostic), and the score is ``sum |theta * dR/dtheta|`` for the
  scalar output sum R.
- ``ntk`` — an NTK-trace estimate: a Hutchinson probe ``v`` of
  Rademacher signs is backpropagated from the outputs, giving
  ``||J^T v||^2`` whose expectation is ``tr(J J^T)``, the empirical
  NTK trace on the batch.

:class:`ZeroCostGate` extends :class:`repro.analysis.PreflightGate`
into the two-tier cascade: tier 1 is the (free) static analyzer, tier
2 scores survivors with a proxy and admits only those at or above a
configurable quantile of the recently-seen score distribution (or an
absolute threshold).  Per-tier counters land in ``GateStats`` so
``trace.static_stats`` separates "statically rejected", "proxy
rejected" and "evaluated".
"""

from __future__ import annotations

import time
from collections import OrderedDict, deque
from typing import Optional

import numpy as np

from ..tensor import BuildError
from .gate import PreflightGate

__all__ = [
    "ZeroCostScorer", "GradNormScorer", "SynflowScorer", "NTKTraceScorer",
    "SCORERS", "get_scorer", "proxy_batch", "ZeroCostGate",
]


def proxy_batch(dataset, batch_size: int = 32):
    """The single batch proxies are computed on: the first
    ``batch_size`` training rows (deterministic — no sampling, so two
    gates over the same problem score identically)."""
    xs = dataset.x_train
    y = dataset.y_train[:batch_size]
    if isinstance(xs, (list, tuple)):
        return [x[:batch_size] for x in xs], y
    return xs[:batch_size], y


def _ones_batch(network, n: int = 1):
    """An all-ones input batch matching the network's input shapes
    (the data-agnostic synflow probe)."""
    ones = [np.ones((n,) + shape, dtype=np.float32)
            for shape in network.input_shapes]
    return ones if len(ones) > 1 else ones[0]


def _param_grad_sq_sum(network) -> float:
    """Sum of squared parameter gradients over all trainable tensors."""
    total = 0.0
    for _, layer, pname in network.trainable():
        g = layer.grads.get(pname)
        if g is not None:
            total += float(np.sum(np.square(g), dtype=np.float64))
    return total


class ZeroCostScorer:
    """Init-time architecture scorer (higher = more promising).

    ``score`` must return ``-inf`` (never raise) for candidates it
    cannot evaluate, so the gate's admission logic can treat a scoring
    failure exactly like a bottom-quantile score.
    """

    name = "base"

    def score(self, problem, arch_seq, *, seed: int = 0,
              batch=None) -> float:
        try:
            return self._score(problem, arch_seq, seed=seed, batch=batch)
        except (BuildError, FloatingPointError, ValueError,
                ZeroDivisionError):
            return float("-inf")

    def _score(self, problem, arch_seq, *, seed: int, batch) -> float:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class GradNormScorer(ZeroCostScorer):
    """L2 norm of the loss gradient at initialization on one batch."""

    name = "gradnorm"

    def _score(self, problem, arch_seq, *, seed: int, batch) -> float:
        from ..tensor.losses import get_loss

        if batch is None:
            batch = proxy_batch(problem.dataset, problem.batch_size)
        x, y = batch
        model = problem.build_model(arch_seq, rng=seed)
        logits = model.forward(x, training=True)
        _, grad = get_loss(problem.loss)(logits, y)
        model.backward(grad)
        return float(np.sqrt(_param_grad_sq_sum(model)))


class SynflowScorer(ZeroCostScorer):
    """Synaptic-flow saliency — label- and data-agnostic.

    Weights are replaced by their absolute values, an all-ones batch is
    forwarded in inference mode (batch-norm uses its init running
    stats, dropout is off), and ``R = sum(outputs)`` is backpropagated;
    the score is ``sum |theta * dR/dtheta|``.  The log of the sum is
    returned: synflow products span hundreds of orders of magnitude
    across depths, and the quantile admission rule only needs a
    monotone statistic.
    """

    name = "synflow"

    def _score(self, problem, arch_seq, *, seed: int, batch) -> float:
        model = problem.build_model(arch_seq, rng=seed)
        for _, layer, pname in model.trainable():
            np.abs(layer.params[pname], out=layer.params[pname])
        out = model.forward(_ones_batch(model), training=False)
        model.backward(np.ones_like(out))
        total = 0.0
        for _, layer, pname in model.trainable():
            g = layer.grads.get(pname)
            if g is not None:
                total += float(np.sum(np.abs(layer.params[pname] * g),
                                      dtype=np.float64))
        if total <= 0.0:
            return float("-inf")
        return float(np.log(total))


class NTKTraceScorer(ZeroCostScorer):
    """Hutchinson estimate of the empirical NTK trace on one batch.

    For outputs ``f(X)`` with Jacobian ``J`` w.r.t. the parameters,
    ``E_v ||J^T v||^2 = tr(J J^T)`` for Rademacher ``v``.  One probe per
    ``probes`` round; the mean over probes (normalized by batch size)
    is the score.
    """

    name = "ntk"

    def __init__(self, probes: int = 1):
        if probes < 1:
            raise ValueError("probes must be >= 1")
        self.probes = int(probes)

    def _score(self, problem, arch_seq, *, seed: int, batch) -> float:
        if batch is None:
            batch = proxy_batch(problem.dataset, problem.batch_size)
        x, y = batch
        model = problem.build_model(arch_seq, rng=seed)
        out = model.forward(x, training=False)
        rng = np.random.default_rng(seed + 0x7CE)
        n = out.shape[0]
        total = 0.0
        for _ in range(self.probes):
            probe = rng.integers(0, 2, size=out.shape).astype(np.float32)
            probe = 2.0 * probe - 1.0
            model.backward(probe)
            total += _param_grad_sq_sum(model)
        return float(total / (self.probes * n))


SCORERS = {
    "gradnorm": GradNormScorer,
    "synflow": SynflowScorer,
    "ntk": NTKTraceScorer,
}


def get_scorer(name_or_scorer) -> ZeroCostScorer:
    """Resolve a scorer name (or pass a configured instance through)."""
    if isinstance(name_or_scorer, ZeroCostScorer):
        return name_or_scorer
    try:
        return SCORERS[name_or_scorer]()
    except KeyError:
        raise ValueError(f"unknown zero-cost scorer {name_or_scorer!r}; "
                         f"available: {sorted(SCORERS)}") from None


class ZeroCostGate(PreflightGate):
    """Two-tier admission cascade: static analysis, then proxy scoring.

    Tier 1 (free) is the inherited static analyzer; statically invalid
    candidates are rejected before any tensor is allocated.  Tier 2
    scores the survivor with ``scorer`` on a single fixed batch and
    admits it when

    - ``threshold`` is set and ``score >= threshold``, or
    - the score is at or above the ``quantile`` of the sliding window
      of the last ``window`` freshly-computed proxy scores (so with
      ``quantile=0.3`` the bottom ~30% of the proposal stream is
      rejected without partial training).

    The first ``warmup`` scored candidates are always admitted — the
    reference distribution has to come from somewhere.  Scores are
    LRU-cached by architecture sequence; only fresh computations enter
    the window (and pay wall-clock, booked in ``stats.proxy_seconds``).
    """

    def __init__(self, problem, *, scorer="gradnorm",
                 quantile: float = 0.3, threshold: Optional[float] = None,
                 warmup: int = 8, batch_size: int = 32, window: int = 256,
                 seed: int = 0, **gate_kwargs):
        super().__init__(problem.space, **gate_kwargs)
        if not 0.0 <= quantile < 1.0:
            raise ValueError(f"quantile must be in [0, 1), got {quantile}")
        if warmup < 1:
            raise ValueError("warmup must be >= 1")
        self.problem = problem
        self.scorer = get_scorer(scorer)
        self.quantile = float(quantile)
        self.threshold = threshold
        self.warmup = int(warmup)
        self.seed = int(seed)
        self._batch = proxy_batch(problem.dataset,
                                  min(batch_size, problem.batch_size))
        self._scores: OrderedDict = OrderedDict()   # seq -> proxy score
        self._window: deque = deque(maxlen=window)

    # ------------------------------------------------------------------
    # proxy tier
    # ------------------------------------------------------------------
    def proxy_score(self, arch_seq) -> float:
        """Cached proxy score of ``arch_seq``; fresh computations are
        timed into ``stats.proxy_seconds`` and enter the quantile
        window."""
        seq = self.space.validate_seq(arch_seq)
        score = self._scores.get(seq)
        if score is not None:
            self._scores.move_to_end(seq)
            return score
        t0 = time.perf_counter()
        score = self.scorer.score(self.problem, seq, seed=self.seed,
                                  batch=self._batch)
        self.stats.proxy_seconds += time.perf_counter() - t0
        self.stats.proxy_scored += 1
        self._scores[seq] = score
        if len(self._scores) > self.cache_size:
            self._scores.popitem(last=False)
        if np.isfinite(score):
            self._window.append(score)
        return score

    def proxy_cutoff(self) -> float:
        """Current admission cutoff (``-inf`` while warming up)."""
        if self.threshold is not None:
            return float(self.threshold)
        if len(self._window) < self.warmup:
            return float("-inf")
        return float(np.quantile(
            np.asarray(self._window, dtype=np.float64), self.quantile))

    def _admit_scored(self, arch_seq) -> bool:
        """Tier-2 hook: called only for statically valid candidates."""
        # cutoff is computed before this candidate's own score can enter
        # the window, so a warming-up gate admits exactly `warmup` scores
        cutoff = self.proxy_cutoff()
        score = self.proxy_score(arch_seq)
        self.stats.proxy_checked += 1
        if not (np.isfinite(score) and score >= cutoff):
            self.stats.proxy_rejected += 1
            self.stats.rejected += 1
            return False
        self.stats.admitted += 1
        return True

    def __repr__(self) -> str:
        return (f"<ZeroCostGate {self.space.name} scorer={self.scorer.name}: "
                f"static {self.stats.static_rejected}, proxy "
                f"{self.stats.proxy_rejected} of {self.stats.checked} "
                f"rejected>")
