"""Adam, the paper's optimizer (Keras defaults: beta1 .9, beta2 .999,
eps 1e-7; the rate comes from the problem).

State is keyed by tensor name, so the optimizer survives weight transfer
(transferred tensors simply start with fresh moments).

A step is one pass over flat buffers: the step's gradients are gathered
into one contiguous vector (``np.concatenate(..., out=)``), the update
rule runs once over flat moment / delta buffers, and the delta is
scattered back with one ``param -= view`` per tensor — which also works
for non-contiguous parameter views.  The rule applies the same ufunc
sequence per element as a per-tensor loop would, so results are
bit-identical to stepping each tensor on its own.  The flat layout is
built outside the step and rebuilt only when the ordered
``(name, shape, dtype)`` slot list changes; surviving names keep their
state.  A network mixing parameter dtypes steps in their common type.

The bias-correction step count ``t`` is the optimizer's ``iterations``
(the Keras rule), which equals a per-tensor count whenever every tensor
gets a gradient on every step, as in ``fit``.

Gradients are consumed as-is: the gather casts them into the flat
buffer's dtype, so float64 gradients never promote float32 parameters.
The pre-optimization allocating rule is frozen in ``reference_ops``
and compared against this one in ``tests/test_kernel_equivalence.py``.
"""

from __future__ import annotations

import math

import numpy as np


class Adam:
    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-7

    def __init__(self, learning_rate: float = 1e-3):
        self.learning_rate = float(learning_rate)
        self.iterations = 0
        self._slots: list[tuple] = []      # (name, shape, dtype) per tensor
        self._spans: list[tuple[int, int]] = []   # (offset, size) per slot
        self._grad = np.empty(0, dtype=np.float32)
        self._delta = np.empty(0, dtype=np.float32)
        self._deltas: list[np.ndarray] = []  # per-tensor views of _delta
        self._m = np.empty(0, dtype=np.float32)
        self._v = np.empty(0, dtype=np.float32)

    def step(self, network) -> None:
        """Apply one update from the gradients stored on the layers."""
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
        grad, delta = self._grad, self._delta
        np.concatenate(grads, axis=None, out=grad)
        self.iterations += 1
        t, m, v = self.iterations, self._m, self._v
        # m = beta1*m + (1-beta1)*g ; v = beta2*v + (1-beta2)*g*g
        m *= self.BETA1
        np.multiply(grad, 1.0 - self.BETA1, out=delta)
        m += delta
        v *= self.BETA2
        np.multiply(grad, grad, out=delta)
        delta *= 1.0 - self.BETA2
        v += delta
        # delta = lr/(1-beta1^t) * m / (sqrt(v/(1-beta2^t)) + eps)
        np.divide(v, 1.0 - self.BETA2 ** t, out=delta)
        np.sqrt(delta, out=delta)
        delta += self.EPS
        np.divide(m, delta, out=delta)
        delta *= self.learning_rate / (1.0 - self.BETA1 ** t)
        for param, d in zip(params, self._deltas):
            param -= d

    def _relayout(self, slots: list[tuple]) -> None:
        """Allocate the flat buffers for ``slots``, carrying each
        surviving ``(name, shape, dtype)`` slot's moments over."""
        dtype = np.result_type(*(d for _, _, d in slots))
        spans, total = [], 0
        for _, shape, _ in slots:
            spans.append((total, math.prod(shape)))
            total += spans[-1][1]
        old = dict(zip(self._slots, self._spans))
        for attr in ("_m", "_v"):
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
