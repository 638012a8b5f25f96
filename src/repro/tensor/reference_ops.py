"""Frozen reference kernels and optimizer math (pre-optimization).

These are the original, obviously-correct implementations of the conv /
pooling kernels and the Adam update rule that ``autodiff_ops`` and
``optimizers`` shipped with before the memory-lean rework.  They are kept
*verbatim* for the kernel-equivalence test suite
(``tests/test_kernel_equivalence.py``), which asserts that the optimized
paths produce ``allclose`` outputs and gradients against these on
randomized shapes.

Do not "fix" or optimize anything here; that would silently move the
goalposts for those tests.  The cache layouts intentionally differ
from ``autodiff_ops`` (these cache the full im2col matrix / boolean pool
mask), so the two families are not mix-and-match compatible.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# conv (im2col with the column matrix held in the cache)
# ---------------------------------------------------------------------------


def _pad2d(x, ph, pw):
    if ph == 0 and pw == 0:
        return x
    return np.pad(x, ((0, 0), (ph, ph), (pw, pw), (0, 0)))


def im2col2d(x, kh, kw):
    """(N, H, W, C) -> (N, Ho, Wo, kh*kw*C) patch matrix (stride 1)."""
    n, h, w, c = x.shape
    ho, wo = h - kh + 1, w - kw + 1
    s0, s1, s2, s3 = x.strides
    patches = np.lib.stride_tricks.as_strided(
        x, shape=(n, ho, wo, kh, kw, c), strides=(s0, s1, s2, s1, s2, s3),
        writeable=False,
    )
    return patches.reshape(n, ho, wo, kh * kw * c)


def conv2d_forward(x, kernel, bias, padding="same"):
    """kernel: (kh, kw, Cin, Cout); stride 1; padding 'same' or 'valid'."""
    kh, kw, cin, cout = kernel.shape
    if padding == "same":
        ph, pw = (kh - 1) // 2, (kw - 1) // 2
        xp = _pad2d(x, ph, pw)
    else:
        ph = pw = 0
        xp = x
    cols = im2col2d(xp, kh, kw)  # (N, Ho, Wo, kh*kw*cin) — cached below
    w2 = kernel.reshape(kh * kw * cin, cout)
    out = cols @ w2 + bias
    return out, (xp.shape, cols, w2, kernel.shape, (ph, pw), x.shape)


def conv2d_backward(gout, cache):
    xp_shape, cols, w2, kshape, (ph, pw), x_shape = cache
    kh, kw, cin, cout = kshape
    n, ho, wo, _ = gout.shape
    g2 = gout.reshape(-1, cout)
    gw2 = cols.reshape(-1, kh * kw * cin).T @ g2
    gk = gw2.reshape(kh, kw, cin, cout)
    gb = g2.sum(axis=0)
    gcols = (g2 @ w2.T).reshape(n, ho, wo, kh, kw, cin)
    gxp = np.zeros(xp_shape, dtype=gout.dtype)
    for i in range(kh):
        for j in range(kw):
            gxp[:, i:i + ho, j:j + wo, :] += gcols[:, :, :, i, j, :]
    if ph or pw:
        h, w = x_shape[1], x_shape[2]
        gx = gxp[:, ph:ph + h, pw:pw + w, :]
    else:
        gx = gxp
    return gx, gk, gb


def conv1d_forward(x, kernel, bias, padding="same"):
    """x: (N, L, C); kernel: (k, Cin, Cout); stride 1."""
    x4 = x[:, :, None, :]
    k4 = kernel[:, None, :, :]
    out, cache = conv2d_forward(x4, k4, bias, padding)
    return out[:, :, 0, :], cache


def conv1d_backward(gout, cache):
    gx4, gk4, gb = conv2d_backward(gout[:, :, None, :], cache)
    return gx4[:, :, 0, :], gk4[:, 0, :, :], gb


# ---------------------------------------------------------------------------
# max pooling (boolean mask held in the cache)
# ---------------------------------------------------------------------------


def _pool2d_view(x, p):
    n, h, w, c = x.shape
    ho, wo = h // p, w // p
    xv = x[:, :ho * p, :wo * p, :].reshape(n, ho, p, wo, p, c)
    return xv, ho, wo


def maxpool2d_forward(x, p):
    xv, ho, wo = _pool2d_view(x, p)
    out = xv.max(axis=(2, 4))
    mask = xv == out[:, :, None, :, None, :]
    mask = mask & (np.cumsum(np.cumsum(mask, axis=2), axis=4) == 1)
    return out, (mask, x.shape, p)


def maxpool2d_backward(gout, cache):
    mask, x_shape, p = cache
    n, ho, _, wo, _, c = mask.shape
    gx = np.zeros(x_shape, dtype=gout.dtype)
    gv = mask * gout[:, :, None, :, None, :]
    gx[:, :ho * p, :wo * p, :] = gv.reshape(n, ho * p, wo * p, c)
    return gx


def _pool1d_view(x, p):
    n, l, c = x.shape
    lo = l // p
    xv = x[:, :lo * p, :].reshape(n, lo, p, c)
    return xv, lo


def maxpool1d_forward(x, p):
    xv, lo = _pool1d_view(x, p)
    out = xv.max(axis=2)
    mask = xv == out[:, :, None, :]
    mask = mask & (np.cumsum(mask, axis=2) == 1)
    return out, (mask, x.shape, p)


def maxpool1d_backward(gout, cache):
    mask, x_shape, p = cache
    n, lo, _, c = mask.shape
    gx = np.zeros(x_shape, dtype=gout.dtype)
    gx[:, :lo * p, :] = (mask * gout[:, :, None, :]).reshape(n, lo * p, c)
    return gx


# ---------------------------------------------------------------------------
# Adam update rule (allocating version)
# ---------------------------------------------------------------------------


def adam_update(param, grad, state, *, learning_rate, beta1=0.9,
                beta2=0.999, eps=1e-7):
    t = state.get("t", 0) + 1
    state["t"] = t
    m = state.get("m", 0.0)
    v = state.get("v", 0.0)
    m = beta1 * m + (1 - beta1) * grad
    v = beta2 * v + (1 - beta2) * grad * grad
    state["m"], state["v"] = m, v
    mhat = m / (1 - beta1 ** t)
    vhat = v / (1 - beta2 ** t)
    return param - learning_rate * mhat / (np.sqrt(vhat) + eps)
