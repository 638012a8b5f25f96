"""Adam, the paper's optimizer (Keras defaults: beta1 .9, beta2 .999,
eps 1e-7; the rate comes from the problem).

An ``Adam`` is bound to one built network when it is created: it steps
the network's ``flat_params`` (every trainable tensor, one contiguous
float32 vector) from its ``flat_grads`` (the buffer the backward kernels
write into).  A step is the update rule once over those flat buffers and
flat moment / delta scratch, then one ``flat_params -= delta``.  The rule
applies the same ufunc sequence per element as a per-tensor loop would,
so results are bit-identical to stepping each tensor on its own; a
tensor no backward reaches keeps a zero gradient, and a zero gradient
moves nothing.  The step allocates nothing.

The bias-correction step count ``t`` is the optimizer's ``iterations``
(the Keras rule), which equals a per-tensor count because every tensor
is stepped on every step.

The pre-optimization allocating rule is frozen in
``tests/reference_ops.py`` and compared against this one in
``tests/test_kernel_equivalence.py``.
"""

from __future__ import annotations

import numpy as np


class Adam:
    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-7

    def __init__(self, network, learning_rate: float = 1e-3):
        self.learning_rate = float(learning_rate)
        self.iterations = 0
        network.initialize()    # never step a deferred, undrawn buffer
        self._params = network.flat_params
        self._grad = network.flat_grads
        n = self._params.size
        self._m = np.zeros(n, dtype=np.float32)
        self._v = np.zeros(n, dtype=np.float32)
        self._delta = np.empty(n, dtype=np.float32)

    def step(self) -> None:
        """Apply one update from the gradients in the network's buffer."""
        self.iterations += 1
        t, grad, delta = self.iterations, self._grad, self._delta
        m, v = self._m, self._v
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
        self._params -= delta
