"""Optimizers: Adam (the paper's configuration), SGD, RMSProp.

State is keyed by tensor name, so an optimizer survives weight transfer
(transferred tensors simply start with fresh moments).

A step is one pass over flat buffers: the step's gradients are gathered
into one contiguous vector (``np.concatenate(..., out=)``), the update
rule runs once over flat moment / velocity / delta buffers, and the
delta is scattered back with one ``param -= view`` per tensor — which
also works for non-contiguous parameter views.  The rules
apply the same ufunc sequence per element as a per-tensor loop would,
so results are bit-identical to stepping each tensor on its own.  The
flat layout is built outside the step and rebuilt only when the ordered
``(name, shape, dtype)`` slot list changes; surviving names keep their
state.  A network mixing parameter dtypes steps in their common type.

Adam's bias-correction step count ``t`` is the optimizer's
``iterations`` (the Keras rule), which equals a per-tensor count
whenever every tensor gets a gradient on every step, as in ``fit``.

Gradients are consumed as-is: the gather casts them into the flat
buffer's dtype, so float64 gradients never promote float32 parameters.
The pre-optimization allocating rules are frozen in ``reference_ops``
and compared against these in ``tests/test_kernel_equivalence.py``.
"""

from __future__ import annotations

import math

import numpy as np


class Optimizer:
    #: Attribute names of the flat per-element state the rule keeps.
    STATE: tuple[str, ...] = ()

    def __init__(self, learning_rate: float = 1e-3, clipnorm: float | None = None):
        self.learning_rate = float(learning_rate)
        self.clipnorm = clipnorm
        self.iterations = 0
        self._slots: list[tuple] = []      # (name, shape, dtype) per tensor
        self._spans: list[tuple[int, int]] = []   # (offset, size) per slot
        self._grad = np.empty(0, dtype=np.float32)
        self._delta = np.empty(0, dtype=np.float32)
        self._deltas: list[np.ndarray] = []  # per-tensor views of _delta
        for attr in self.STATE:
            setattr(self, attr, np.empty(0, dtype=np.float32))

    def step(self, network) -> None:
        """Apply one update from the gradients stored on the layers.

        With ``clipnorm`` set, the gathered gradient is scaled in place
        (the layers' own gradients are left as they are); without it,
        no norm reduction runs at all.
        """
        grads, params, slots = [], [], []
        for name, layer, pname in network.trainable():
            g = layer.grads.get(pname)
            if g is None:
                continue
            p = layer.params[pname]
            grads.append(g)
            params.append(p)
            slots.append((name, p.shape, p.dtype))
        if not grads:
            return
        if slots != self._slots:
            self._relayout(slots)
        flat = self._grad
        np.concatenate(grads, axis=None, out=flat)
        if self.clipnorm is not None:
            gnorm = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
            if gnorm > self.clipnorm:
                np.multiply(flat, self.clipnorm / (gnorm + 1e-12), out=flat)
        self.iterations += 1
        self._apply(flat, self._delta)
        for param, delta in zip(params, self._deltas):
            param -= delta

    def _relayout(self, slots: list[tuple]) -> None:
        """Allocate the flat buffers for ``slots``, carrying each
        surviving ``(name, shape, dtype)`` slot's state over."""
        dtype = np.result_type(*(d for _, _, d in slots))
        spans, total = [], 0
        for _, shape, _ in slots:
            spans.append((total, math.prod(shape)))
            total += spans[-1][1]
        old = dict(zip(self._slots, self._spans))
        for attr in self.STATE:
            prev, state = getattr(self, attr), np.zeros(total, dtype=dtype)
            for slot, (o, n) in zip(slots, spans):
                if slot in old:
                    state[o:o + n] = prev[old[slot][0]:old[slot][0] + n]
            setattr(self, attr, state)
        self._grad = np.empty(total, dtype=dtype)
        self._delta = np.empty(total, dtype=dtype)
        self._deltas = [self._delta[o:o + n].reshape(shape)
                        for (_, shape, _), (o, n) in zip(slots, spans)]
        self._slots, self._spans = slots, spans

    def _apply(self, grad: np.ndarray, delta: np.ndarray) -> None:
        """Update the flat state from ``grad`` and write the amount to
        subtract from the parameters into ``delta``."""
        raise NotImplementedError


class SGD(Optimizer):
    def __init__(self, learning_rate: float = 1e-2, momentum: float = 0.0,
                 clipnorm=None):
        self.momentum = momentum
        self.STATE = ("_velocity",) if momentum else ()
        super().__init__(learning_rate, clipnorm)

    def _apply(self, grad, delta) -> None:
        if self.momentum:
            v = self._velocity
            v *= self.momentum
            v += grad
            grad = v
        np.multiply(grad, self.learning_rate, out=delta)


class Adam(Optimizer):
    """Paper config: lr 1e-3, beta1 .9, beta2 .999, eps 1e-7."""

    STATE = ("_m", "_v")

    def __init__(self, learning_rate: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-7, clipnorm=None):
        super().__init__(learning_rate, clipnorm)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps

    def _apply(self, grad, delta) -> None:
        t, m, v = self.iterations, self._m, self._v
        # m = beta1*m + (1-beta1)*g ; v = beta2*v + (1-beta2)*g*g
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=delta)
        m += delta
        v *= self.beta2
        np.multiply(grad, grad, out=delta)
        delta *= 1.0 - self.beta2
        v += delta
        # delta = lr/(1-beta1^t) * m / (sqrt(v/(1-beta2^t)) + eps)
        np.divide(v, 1.0 - self.beta2 ** t, out=delta)
        np.sqrt(delta, out=delta)
        delta += self.eps
        np.divide(m, delta, out=delta)
        delta *= self.learning_rate / (1.0 - self.beta1 ** t)


class RMSProp(Optimizer):
    STATE = ("_ms",)

    def __init__(self, learning_rate: float = 1e-3, rho: float = 0.9,
                 eps: float = 1e-7, clipnorm=None):
        super().__init__(learning_rate, clipnorm)
        self.rho, self.eps = rho, eps

    def _apply(self, grad, delta) -> None:
        ms = self._ms
        ms *= self.rho
        np.multiply(grad, grad, out=delta)
        delta *= 1.0 - self.rho
        ms += delta
        np.sqrt(ms, out=delta)
        delta += self.eps
        np.divide(grad, delta, out=delta)
        delta *= self.learning_rate


OPTIMIZERS = {"adam": Adam, "sgd": SGD, "rmsprop": RMSProp}


def get_optimizer(name_or_opt, learning_rate: float | None = None,
                  clipnorm=None) -> Optimizer:
    if isinstance(name_or_opt, Optimizer):
        return name_or_opt
    try:
        cls = OPTIMIZERS[name_or_opt]
    except KeyError:
        raise ValueError(f"unknown optimizer {name_or_opt!r}") from None
    kwargs = {}
    if learning_rate is not None:
        kwargs["learning_rate"] = learning_rate
    if clipnorm is not None:
        kwargs["clipnorm"] = clipnorm
    return cls(**kwargs)
