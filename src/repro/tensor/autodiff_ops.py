"""Low-level forward/backward kernels.

Every op is a pure function pair: ``*_forward`` returns ``(out, cache)``
and ``*_backward`` consumes ``(grad_out, cache)``.  Layout conventions:

- dense activations: ``(N, D)``
- 1-D feature maps:  ``(N, L, C)`` (length-major, channels-last)
- 2-D feature maps:  ``(N, H, W, C)`` (NHWC, like Keras)

Convolutions are implemented with im2col so the inner loop is a single
matmul; backprop is exact (validated against numerical gradients in
``tests/test_tensor_autodiff.py``).

Performance contract (see DESIGN.md "Kernel layout & performance"):

- conv caches hold only the *padded input* — the im2col column matrix is
  a transient that lives for one GEMM and is rebuilt from a strided view
  in the backward pass, never kept alive between passes;
- every op preserves the input floating dtype (float32 in -> float32
  out); nothing silently promotes to float64;
- max-pool caches flat argmax indices (1 byte/output element), not a
  boolean window mask (p^2 bytes/output element);
- the conv, dense and batch-norm backwards take ``need_gx``: with
  ``False`` (no ancestor trains, see ``Network.backward_liveness``) they
  skip the input-gradient work and return ``gx=None``;
- the same backwards take the parameter-gradient arrays to write into
  (``np.matmul(..., out=)``, ``np.add.reduce(..., out=)``): a network
  passes the views of its one gradient buffer, so the optimizer reads
  every gradient without a gather; ``None`` allocates, as a stand-alone
  layer needs;
- same-padding pads write into a zeroed buffer (no ``np.pad``), and
  ``conv2d_backward`` scatters column gradients row-wise in an order
  that keeps every float32 sum bit-identical to the per-tap loop.

The pre-optimization implementations are frozen in
``tests/reference_ops.py`` and the two are compared op-by-op in
``tests/test_kernel_equivalence.py`` (conv2d exactly, on generated
shapes).
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# dense
# ---------------------------------------------------------------------------


def dense_forward(x, kernel, bias):
    out = x @ kernel
    out += bias
    return out, (x, kernel)


def dense_backward(gout, cache, need_gx=True, gk=None, gb=None):
    x, kernel = cache
    gx = gout @ kernel.T if need_gx else None
    gk = np.matmul(x.T, gout, out=gk)
    gb = np.add.reduce(gout, axis=0, out=gb)
    return gx, gk, gb


def _matmul_into(a, b, out, shape):
    """``(a @ b).reshape(shape)``, written into ``out`` when given (a
    contiguous array of ``shape``, so its 2-D reshape is a view)."""
    if out is None:
        return (a @ b).reshape(shape)
    np.matmul(a, b, out=out.reshape(a.shape[0], b.shape[1]))
    return out


# ---------------------------------------------------------------------------
# im2col helpers
# ---------------------------------------------------------------------------


def _pad2d(x, ph, pw):
    if ph == 0 and pw == 0:
        return x
    n, h, w, c = x.shape
    xp = np.zeros((n, h + 2 * ph, w + 2 * pw, c), dtype=x.dtype)
    xp[:, ph:ph + h, pw:pw + w, :] = x
    return xp


def patch_view6d(x, kh, kw):
    """(N, H, W, C) -> zero-copy (N, Ho, Wo, kh, kw, C) strided view."""
    n, h, w, c = x.shape
    s0, s1, s2, s3 = x.strides
    return np.lib.stride_tricks.as_strided(
        x, shape=(n, h - kh + 1, w - kw + 1, kh, kw, c),
        strides=(s0, s1, s2, s1, s2, s3), writeable=False,
    )


def im2col2d(x, kh, kw):
    """(N, H, W, C) -> (N, Ho, Wo, kh*kw*C) patch matrix (stride 1).

    The reshape of the strided 6-D view materialises one contiguous
    copy; callers must treat it as a transient, not hold it in a cache.
    """
    n, h, w, c = x.shape
    return patch_view6d(x, kh, kw).reshape(
        n, h - kh + 1, w - kw + 1, kh * kw * c)


def conv2d_forward(x, kernel, bias, padding="same"):
    """kernel: (kh, kw, Cin, Cout); stride 1; padding 'same' or 'valid'.

    The cache holds only the padded input (~1/(kh*kw) the size of the
    im2col matrix); backward rebuilds the patch view from it.
    """
    kh, kw, cin, cout = kernel.shape
    if padding == "same":
        ph, pw = (kh - 1) // 2, (kw - 1) // 2
        xp = _pad2d(x, ph, pw)
    else:
        ph = pw = 0
        xp = x
    cols = im2col2d(xp, kh, kw)  # transient (N, Ho, Wo, kh*kw*cin)
    out = cols @ kernel.reshape(kh * kw * cin, cout)
    out += bias
    return out, (xp, kernel, (ph, pw), x.shape)


def conv2d_backward(gout, cache, need_gx=True, gk=None, gb=None):
    """``need_gx=False`` skips the column-gradient GEMM and scatter and
    returns ``gx=None``.

    The scatter runs per (kernel row ``i``, output column ``x``) with
    ``x`` descending, adding each ``(n, ho, kw*cin)`` block in one
    contiguous run.  Every ``gxp`` element still receives its ``(i, j)``
    contributions in tap order (``i`` ascending, then ``j = X - x``
    ascending), so the sums are bit-identical to a per-tap loop.
    """
    xp, kernel, (ph, pw), x_shape = cache
    kh, kw, cin, cout = kernel.shape
    n, ho, wo, _ = gout.shape
    g2 = gout.reshape(-1, cout)
    # one transient rebuild of the column matrix; measured faster than
    # tensordot/einsum over the 6-D view (those copy internally anyway)
    cols = im2col2d(xp, kh, kw).reshape(-1, kh * kw * cin)
    gk = _matmul_into(cols.T, g2, gk, (kh, kw, cin, cout))
    # free the columns before the gcols GEMM allocates a matrix their size
    del cols
    gb = np.add.reduce(g2, axis=0, out=gb)
    if not need_gx:
        return None, gk, gb
    gcols = (g2 @ kernel.reshape(kh * kw * cin, cout).T).reshape(
        n, ho, wo, kh, kw * cin)
    gxp = np.zeros(xp.shape, dtype=gout.dtype)
    rows = gxp.reshape(n, xp.shape[1], xp.shape[2] * cin)
    for i in range(kh):
        for x in range(wo - 1, -1, -1):
            dst = rows[:, i:i + ho, x * cin:(x + kw) * cin]
            np.add(dst, gcols[:, :, x, i, :], out=dst)
    if ph or pw:
        h, w = x_shape[1], x_shape[2]
        gx = gxp[:, ph:ph + h, pw:pw + w, :]
    else:
        gx = gxp
    return gx, gk, gb


def _pad1d(x, p):
    if p == 0:
        return x
    n, length, c = x.shape
    xp = np.zeros((n, length + 2 * p, c), dtype=x.dtype)
    xp[:, p:p + length, :] = x
    return xp


def patch_view4d(x, k):
    """(N, L, C) -> zero-copy (N, Lo, k, C) strided view."""
    n, length, c = x.shape
    s0, s1, s2 = x.strides
    return np.lib.stride_tricks.as_strided(
        x, shape=(n, length - k + 1, k, c), strides=(s0, s1, s1, s2),
        writeable=False,
    )


def conv1d_forward(x, kernel, bias, padding="same"):
    """x: (N, L, C); kernel: (k, Cin, Cout); stride 1.

    Native column kernel.  The old implementation routed through the
    2-D conv with singleton axes, which re-derived the patch matrix in
    backward and lost to the legacy kernel on same-dtype inputs
    (0.904x its speed).  Here one patch-matrix
    copy feeds a single GEMM and, unlike conv2d, the cache keeps the
    column matrix: at only k x the input it is cheap in 1-D and saves
    the backward rebuild entirely.
    """
    k, cin, cout = kernel.shape
    p = (k - 1) // 2 if padding == "same" else 0
    xp = _pad1d(x, p)
    n, lp, _ = xp.shape
    lo = lp - k + 1
    cols = patch_view4d(xp, k).reshape(n, lo, k * cin)  # one copy
    out = cols @ kernel.reshape(k * cin, cout)
    out += bias
    return out, (cols, kernel, p, x.shape, xp.shape)


def conv1d_backward(gout, cache, need_gx=True, gk=None, gb=None):
    cols, kernel, p, x_shape, xp_shape = cache
    k, cin, cout = kernel.shape
    n, lo, _ = gout.shape
    g2 = gout.reshape(-1, cout)
    c2 = cols.reshape(-1, k * cin)
    gk = _matmul_into(c2.T, g2, gk, (k, cin, cout))
    gb = np.add.reduce(g2, axis=0, out=gb)
    if not need_gx:
        return None, gk, gb
    gcols = (g2 @ kernel.reshape(k * cin, cout).T).reshape(n, lo, k, cin)
    gxp = np.zeros(xp_shape, dtype=gout.dtype)
    for i in range(k):
        gxp[:, i:i + lo, :] += gcols[:, :, i, :]
    gx = gxp[:, p:p + x_shape[1], :] if p else gxp
    return gx, gk, gb


# ---------------------------------------------------------------------------
# pooling (non-overlapping windows, stride == pool; remainder cropped)
# ---------------------------------------------------------------------------


def _pool2d_view(x, p):
    n, h, w, c = x.shape
    ho, wo = h // p, w // p
    xv = x[:, :ho * p, :wo * p, :].reshape(n, ho, p, wo, p, c)
    return xv, ho, wo


def maxpool2d_forward(x, p):
    """Cache flat argmax indices (uint8, one per output element) instead
    of a p^2-per-output boolean mask; argmax breaks ties toward the first
    window element, so gradients are never duplicated."""
    n, h, w, c = x.shape
    ho, wo = h // p, w // p
    xw = x[:, :ho * p, :wo * p, :].reshape(n, ho, p, wo, p, c) \
        .transpose(0, 1, 3, 5, 2, 4).reshape(n, ho, wo, c, p * p)
    idx = xw.argmax(axis=-1)
    out = np.take_along_axis(xw, idx[..., None], axis=-1)[..., 0]
    if p * p <= 0xFF:
        idx = idx.astype(np.uint8)
    return out, (idx, x.shape, p)


def maxpool2d_backward(gout, cache):
    idx, x_shape, p = cache
    n, ho, wo, c = gout.shape
    gw = np.zeros((n, ho, wo, c, p * p), dtype=gout.dtype)
    np.put_along_axis(gw, idx[..., None], gout[..., None], axis=-1)
    gx = np.zeros(x_shape, dtype=gout.dtype)
    gx[:, :ho * p, :wo * p, :] = gw.reshape(n, ho, wo, c, p, p) \
        .transpose(0, 1, 4, 2, 5, 3).reshape(n, ho * p, wo * p, c)
    return gx


def avgpool2d_forward(x, p):
    xv, ho, wo = _pool2d_view(x, p)
    out = xv.mean(axis=(2, 4))
    return out, (x.shape, p, ho, wo)


def avgpool2d_backward(gout, cache):
    x_shape, p, ho, wo = cache
    n, _, _, c = x_shape
    gx = np.zeros(x_shape, dtype=gout.dtype)
    g = np.repeat(np.repeat(gout, p, axis=1), p, axis=2) / (p * p)
    gx[:, :ho * p, :wo * p, :] = g
    return gx


def _pool1d_view(x, p):
    n, l, c = x.shape
    lo = l // p
    xv = x[:, :lo * p, :].reshape(n, lo, p, c)
    return xv, lo


def maxpool1d_forward(x, p):
    xv, lo = _pool1d_view(x, p)            # (N, Lo, p, C)
    idx = xv.argmax(axis=2)                # first-max tie-breaking
    out = np.take_along_axis(xv, idx[:, :, None, :], axis=2)[:, :, 0, :]
    if p <= 0xFF:
        idx = idx.astype(np.uint8)
    return out, (idx, x.shape, p)


def maxpool1d_backward(gout, cache):
    idx, x_shape, p = cache
    n, lo, c = gout.shape
    gv = np.zeros((n, lo, p, c), dtype=gout.dtype)
    np.put_along_axis(gv, idx[:, :, None, :], gout[:, :, None, :], axis=2)
    gx = np.zeros(x_shape, dtype=gout.dtype)
    gx[:, :lo * p, :] = gv.reshape(n, lo * p, c)
    return gx


def avgpool1d_forward(x, p):
    xv, lo = _pool1d_view(x, p)
    return xv.mean(axis=2), (x.shape, p, lo)


def avgpool1d_backward(gout, cache):
    x_shape, p, lo = cache
    gx = np.zeros(x_shape, dtype=gout.dtype)
    gx[:, :lo * p, :] = np.repeat(gout, p, axis=1) / p
    return gx


# ---------------------------------------------------------------------------
# batch normalisation (channels-last, any rank)
# ---------------------------------------------------------------------------


def batchnorm_forward(x, gamma, beta, mean, var, eps=1e-5,
                      batch_stats=True):
    """Normalise with the *given* statistics.  ``batch_stats`` records
    whether they were computed from ``x`` (training) or are frozen
    running statistics (inference) — the backward pass differs."""
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * inv
    out = xhat * gamma
    out += beta
    return out, (xhat, gamma, inv, x.shape, batch_stats)


def batchnorm_backward(gout, cache, need_gx=True, ggamma=None, gbeta=None):
    xhat, gamma, inv, x_shape, batch_stats = cache
    axes = tuple(range(gout.ndim - 1))
    ggamma = np.add.reduce(gout * xhat, axis=axes, out=ggamma)
    gbeta = np.add.reduce(gout, axis=axes, out=gbeta)
    if not need_gx:
        return None, ggamma, gbeta
    if not batch_stats:
        # frozen statistics are constants w.r.t. x
        return gamma * inv * gout, ggamma, gbeta
    # python int: a NumPy integer scalar here would promote f32 -> f64
    m = int(np.prod([x_shape[a] for a in axes]))
    gx = (gamma * inv / m) * (
        m * gout - gbeta - xhat * ggamma
    )
    return gx, ggamma, gbeta


# ---------------------------------------------------------------------------
# dropout
# ---------------------------------------------------------------------------


def dropout_forward(x, rate, rng):
    # rng.random only draws float32/float64; the float64 fallback is a
    # dtype *decision* for non-float inputs, not a hot-path promotion
    floats = (np.float32, np.float64)  # lint: ignore[R001]
    draw_dtype = x.dtype if x.dtype in floats else np.float64  # lint: ignore[R001]
    mask = (rng.random(x.shape, dtype=draw_dtype) >= rate).astype(x.dtype)
    mask *= 1.0 / (1.0 - rate)
    return x * mask, mask


def dropout_backward(gout, mask):
    return gout * mask


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def relu_forward(x):
    out = np.maximum(x, 0.0)
    return out, out


def relu_backward(gout, out):
    return gout * (out > 0)


def tanh_forward(x):
    out = np.tanh(x)
    return out, out


def tanh_backward(gout, out):
    return gout * (1.0 - out * out)


def sigmoid_forward(x):
    out = 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))
    return out, out


def sigmoid_backward(gout, out):
    return gout * out * (1.0 - out)


ACTIVATIONS = {
    "relu": (relu_forward, relu_backward),
    "tanh": (tanh_forward, tanh_backward),
    "sigmoid": (sigmoid_forward, sigmoid_backward),
}


# ---------------------------------------------------------------------------
# softmax cross-entropy (fused, numerically stable)
# ---------------------------------------------------------------------------


def softmax_cross_entropy(logits, onehot):
    """Returns (mean loss, probs); gradient wrt logits is
    ``(probs - onehot) / N``.

    The loss goes through log-sum-exp on the shifted logits instead of
    ``log(probs + eps)`` — exact for one-hot targets, no epsilon fudge,
    and one full-size temporary fewer."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    se = e.sum(axis=-1, keepdims=True)
    probs = e / se
    n = logits.shape[0]
    loss = float(
        (np.log(se).sum() - (z * onehot).sum()) / n
    )
    return loss, probs


def softmax_cross_entropy_backward(probs, onehot):
    return (probs - onehot) / probs.shape[0]
