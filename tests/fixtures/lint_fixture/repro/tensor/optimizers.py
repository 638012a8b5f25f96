"""Fixture: R001 in a ``repro/tensor`` hot path, one branch per marked
line — ``np.array`` of a literal without dtype, the ``np.float64``
attribute and the ``"float64"`` literal."""

import numpy as np


class Float64Momentum:
    def __init__(self, lr):
        self.lr = lr
        self.betas = np.array([0.9, 0.999])  # R001
        self.accumulate_dtype = np.float64  # R001
        self.betas32 = np.array([0.9, 0.999], dtype=np.float32)

    def step(self, params, grads):
        for name, g in grads.items():
            wide = g.astype("float64")  # R001
            params[name] -= (self.lr * wide).astype(params[name].dtype)
