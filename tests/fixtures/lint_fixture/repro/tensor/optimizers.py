"""Fixture: R003 violations (allocations inside an optimizer step)."""

import numpy as np


class BadSGD:
    def __init__(self, lr):
        self.lr = lr

    def step(self, params, grads):
        for name, g in grads.items():
            params[name] = params[name] - self.lr * np.zeros_like(g)


class FlatSGD:
    def __init__(self, lr, size):
        self.lr = lr
        self.flat = np.empty(size, dtype=np.float32)

    def step(self, params, grads):
        flat = np.concatenate(list(grads.values()), axis=None)  # R003
        np.concatenate(list(grads.values()), axis=None, out=self.flat)
        np.multiply(flat, self.lr, out=flat)
