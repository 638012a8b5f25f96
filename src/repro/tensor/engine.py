"""Compiled training-step engine: per-architecture execution plans.

``StepPlan`` traces one eager training step for a concrete
(architecture, batch shape, dtype) triple into a flat, topologically
ordered op schedule over a preallocated buffer arena:

- every forward activation, gradient, and kernel workspace lives in a
  fixed slot allocated once at trace time; steady-state steps perform
  zero array allocations (lint rule R010 enforces this statically on
  every ``execute*``/``run_step`` function in this module, and
  ``tests/test_engine.py`` measures it with tracemalloc);
- the hottest op sequences are fused: conv -> bias -> activation and
  dense -> bias -> activation run as one op over shared buffers, the
  conv backward reuses the forward's im2col matrix instead of
  rebuilding it (and writes its column gradient back into the same
  workspace), and loss + softmax backward share their temporaries;
- the schedule drops dead gradient work by the same rule as eager
  (``Network.backward_liveness``): a layer whose input subtree holds no
  trainable parameters never computes its input gradient (the first
  conv of a chain skips the whole column-gradient GEMM and scatter).

Bit-identicality contract: a plan step replicates the eager step's
arithmetic *exactly* — same ufunc sequences via ``out=``, same operand
layouts (contiguous activations, strided conv input-gradient views),
same reduction orders — so scores, History, and search traces are
bit-identical to ``engine="eager"``.  ``tests/test_engine.py`` pins
this on all four applications and finite-difference-checks every fused
kernel.

Plans are shared across evaluations through :class:`PlanCache`, a
thread-safe check-out/check-in pool keyed by the structural network
signature + batch/dtype/loss; every search in a process checks plans
out of one default cache (:func:`get_plan_cache`).  The cache admits a
network on its second sighting only: a search breeds each candidate as
a one-node mutation of its parent and almost never trains the same
network twice, so the first fit of a network runs eagerly (counted as
``deferred``) and only a repeat pays for an arena.  The cache lock is
registered in ``LOCK_HIERARCHY`` as ``"PlanCache._lock"``.
"""

from __future__ import annotations

import time
from collections import OrderedDict

import numpy as np

from . import layers as L

__all__ = [
    "PlanCache",
    "PlanUnsupportedError",
    "StepPlan",
    "get_plan_cache",
    "network_signature",
    "plan_key",
]

_as_strided = np.lib.stride_tricks.as_strided

#: Lock-discipline assertion (lint R004/R007): the idle-plan pool, the
#: sighting set and their statistics are touched by every thread that
#: acquires or releases a plan; all writes must hold ``self._lock``.
_GUARDED_ATTRS = ("_idle", "_seen", "deferred", "evictions", "hits",
                  "misses", "trace_seconds", "traces")

#: sightings remembered per idle-plan slot: the sighting set holds
#: ``_SEEN_PER_PLAN * max_plans`` keys (a key is a small tuple, an arena
#: megabytes)
_SEEN_PER_PLAN = 32


class PlanUnsupportedError(ValueError):
    """The network / loss cannot be compiled, or :class:`PlanCache` has
    not admitted it yet; callers fall back to the eager path (which is
    always available)."""


# ---------------------------------------------------------------------------
# structural signature + cache key
# ---------------------------------------------------------------------------


def _layer_config(layer) -> tuple:
    if isinstance(layer, L.Dense):
        return ("Dense", layer.units, layer.activation)
    if isinstance(layer, L.Conv2D):
        return ("Conv2D", layer.filters, layer.kernel_size,
                layer._effective_padding, layer.activation)
    if isinstance(layer, L.Conv1D):
        return ("Conv1D", layer.filters, layer.kernel_size,
                layer._effective_padding, layer.activation)
    if isinstance(layer, L._Pool):
        return ("Pool", layer.KIND, layer.NDIM, layer.pool_size,
                layer._noop)
    if isinstance(layer, L.BatchNorm):
        return ("BatchNorm", layer.momentum, layer.eps)
    if isinstance(layer, L.Dropout):
        return ("Dropout", layer.rate)
    if isinstance(layer, L.Activation):
        return ("Activation", layer.fn)
    if isinstance(layer, L.Flatten):
        return ("Flatten",)
    if isinstance(layer, L.Identity):
        return ("Identity",)
    if isinstance(layer, L.Concatenate):
        return ("Concatenate",)
    raise PlanUnsupportedError(
        f"no plan support for layer type {type(layer).__name__}")


def network_signature(network) -> tuple:
    """Structural identity of a built network: layer types, configs and
    wiring (names erased) — two candidates that build the same graph
    share one signature and therefore one cached plan."""
    if not network.built:
        raise ValueError("network must be built before planning")
    index = {f"input:{i}": ("in", i)
             for i in range(len(network.input_shapes))}
    sig = [tuple(network.input_shapes)]
    for i, layer in enumerate(network._layers):
        parents = tuple(index[p] for p in network._inputs_of[layer.name])
        index[layer.name] = ("l", i)
        sig.append((_layer_config(layer), parents))
    return tuple(sig)


def plan_key(network, batch_size, x_dtypes, y_dtype, y_shape, loss) -> tuple:
    if not isinstance(loss, str):
        raise PlanUnsupportedError("callable losses cannot be planned")
    if loss not in ("categorical_crossentropy", "mse", "mae"):
        raise PlanUnsupportedError(f"no plan support for loss {loss!r}")
    return (network_signature(network), int(batch_size),
            tuple(str(d) for d in x_dtypes), str(y_dtype),
            tuple(y_shape), loss)


# ---------------------------------------------------------------------------
# buffer arena
# ---------------------------------------------------------------------------


class _Arena:
    """Trace-time allocator: every per-step buffer is carved here once;
    ``nbytes`` is the plan's resident footprint."""

    def __init__(self):
        self.nbytes = 0

    def zeros(self, shape, dtype) -> np.ndarray:
        buf = np.zeros(shape, dtype=dtype)
        self.nbytes += buf.nbytes
        return buf


# ---------------------------------------------------------------------------
# fused activation kernels (exact eager ufunc sequences, out= form)
# ---------------------------------------------------------------------------


class _ActKernel:
    """In-place activation forward/backward over fixed scratch buffers.

    Each method replays the exact elementwise sequence of the eager
    kernels in ``autodiff_ops`` (same ops, same order, same scalar
    operands), writing through ``out=`` so no temporaries are created.
    """

    def __init__(self, fn: str, shape, dtype, arena: _Arena):
        self.fn = fn
        if fn in ("relu", "elu"):
            self._bmask = arena.zeros(shape, dtype=np.bool_)
        if fn in ("tanh", "sigmoid", "elu"):
            self._t1 = arena.zeros(shape, dtype=dtype)

    # forward: out may alias x (all sequences read x before clobbering,
    # elu via the _t1 snapshot)
    def execute_fwd(self, x, out) -> None:
        fn = self.fn
        if fn == "relu":
            np.maximum(x, 0.0, out=out)
        elif fn == "tanh":
            np.tanh(x, out=out)
        elif fn == "sigmoid":
            np.clip(x, -60.0, 60.0, out=out)
            np.negative(out, out=out)
            np.exp(out, out=out)
            np.add(out, 1.0, out=out)
            np.divide(1.0, out, out=out)
        else:  # elu, alpha == 1.0 (the only configuration in the repo)
            t1 = self._t1
            np.copyto(t1, x)
            np.clip(t1, -60.0, 0.0, out=out)
            np.exp(out, out=out)
            np.subtract(out, 1.0, out=out)
            np.multiply(out, 1.0, out=out)
            np.greater(t1, 0, out=self._bmask)
            np.copyto(out, t1, where=self._bmask)

    # backward: dst may alias g
    def execute_bwd(self, g, out, dst) -> None:
        fn = self.fn
        if fn == "relu":
            np.greater(out, 0, out=self._bmask)
            np.multiply(g, self._bmask, out=dst)
        elif fn == "tanh":
            t1 = self._t1
            np.multiply(out, out, out=t1)
            np.subtract(1.0, t1, out=t1)
            np.multiply(g, t1, out=dst)
        elif fn == "sigmoid":
            t1 = self._t1
            np.subtract(1.0, out, out=t1)
            np.multiply(g, out, out=dst)
            np.multiply(dst, t1, out=dst)
        else:  # elu
            t1 = self._t1
            np.add(out, 1.0, out=t1)
            np.greater(out, 0, out=self._bmask)
            np.copyto(t1, 1.0, where=self._bmask)
            np.multiply(g, t1, out=dst)


# ---------------------------------------------------------------------------
# loss kernels (fused loss + softmax backward)
# ---------------------------------------------------------------------------


class _CELossKernel:
    """Fused softmax cross-entropy: loss and logits-gradient in one op
    over shared buffers (the eager path's probs/z temporaries become
    fixed slots; ``e`` is reused for the z*onehot product)."""

    def __init__(self, logits, y, arena: _Arena):
        n, k = logits.shape
        dt = logits.dtype
        rt = np.result_type(logits, y)
        self._logits, self._y, self._n = logits, y, n
        self._mx = arena.zeros((n, 1), dtype=dt)
        self._z = arena.zeros((n, k), dtype=dt)
        self._e = arena.zeros((n, k), dtype=dt)
        self._se = arena.zeros((n, 1), dtype=dt)
        self._probs = arena.zeros((n, k), dtype=dt)
        # the z*onehot product promotes to result_type(logits, y); the
        # exp/softmax chain stays in the logits dtype, exactly as eager
        self._zy = self._e if rt == dt else arena.zeros((n, k), dtype=rt)
        self._a0 = arena.zeros((), dtype=dt)
        self._b0 = arena.zeros((), dtype=rt)
        self._r0 = self._a0 if rt == dt else arena.zeros((), dtype=rt)
        self.grad = arena.zeros((n, k), dtype=rt)

    def execute_loss(self) -> float:
        logits, y, n = self._logits, self._y, self._n
        mx, z, e, se, probs = self._mx, self._z, self._e, self._se, self._probs
        np.amax(logits, axis=-1, keepdims=True, out=mx)
        np.subtract(logits, mx, out=z)
        np.exp(z, out=e)
        np.sum(e, axis=-1, keepdims=True, out=se)
        np.divide(e, se, out=probs)
        np.log(se, out=se)
        np.sum(se, out=self._a0)
        np.multiply(z, y, out=self._zy)
        np.sum(self._zy, out=self._b0)
        np.subtract(self._a0, self._b0, out=self._r0)
        np.divide(self._r0, n, out=self._r0)
        np.subtract(probs, y, out=self.grad)
        np.divide(self.grad, n, out=self.grad)
        return float(self._r0)


class _RegLossKernel:
    """mse / mae with the gradient computed in the diff buffer."""

    def __init__(self, kind: str, pred, y, arena: _Arena):
        self._kind = kind
        rt = np.result_type(pred, y)
        self._pred, self._y = pred, y
        self._diff = arena.zeros(pred.shape, dtype=rt)
        self._tmp = arena.zeros(pred.shape, dtype=rt)
        self._sc = arena.zeros((), dtype=rt)
        self.grad = self._diff

    def execute_loss(self) -> float:
        diff, tmp = self._diff, self._tmp
        np.subtract(self._pred, self._y, out=diff)
        if self._kind == "mse":
            np.multiply(diff, diff, out=tmp)
            np.mean(tmp, out=self._sc)
            np.multiply(diff, 2.0, out=diff)
        else:  # mae
            np.absolute(diff, out=tmp)
            np.mean(tmp, out=self._sc)
            np.sign(diff, out=diff)
        np.divide(diff, diff.size, out=diff)
        return float(self._sc)
# ---------------------------------------------------------------------------
# schedule micro-ops
# ---------------------------------------------------------------------------


class _AccumOp:
    """Gradient fan-in for a multi-consumer tensor: the first
    contribution is copied into the accumulator, later ones are added —
    the same left-to-right association as the eager
    ``pending[p] = pending[p] + gp`` chain."""

    __slots__ = ("_dst", "_src", "_first")

    def __init__(self, dst, src, first: bool):
        self._dst, self._src, self._first = dst, src, first

    def execute_accum(self) -> None:
        if self._first:
            np.copyto(self._dst, self._src)
        else:
            np.add(self._dst, self._src, out=self._dst)


class _CopyOp:
    """Plain buffer copy (staging a strided gradient the way eager's
    ``reshape`` would)."""

    __slots__ = ("_dst", "_src")

    def __init__(self, dst, src):
        self._dst, self._src = dst, src

    def execute_copy(self) -> None:
        np.copyto(self._dst, self._src)


# ---------------------------------------------------------------------------
# layer ops
# ---------------------------------------------------------------------------


class _DenseOp:
    def __init__(self, layer, x, n, arena):
        self._x = x
        self.out = arena.zeros((n,) + layer.output_shape, dtype=x.dtype)
        self._xT = x.T
        self._act = (_ActKernel(layer.activation, self.out.shape,
                                self.out.dtype, arena)
                     if layer.activation else None)
        self.rebind(layer)

    def rebind(self, layer) -> None:
        self._layer = layer
        self._kernel = layer.params["kernel"]
        self._bias = layer.params["bias"]
        self._kernelT = self._kernel.T

    def execute_forward(self) -> None:
        out = self.out
        np.matmul(self._x, self._kernel, out=out)
        np.add(out, self._bias, out=out)
        if self._act is not None:
            self._act.execute_fwd(out, out)

    def trace_backward(self, g, need_gx, arena):
        x = self._x
        if g.flags.c_contiguous:
            self._gw, self._gstage = g, None
        else:
            # eager materialises a contiguous array here (activation
            # backward or the matmul's internal copy); mirror its layout
            self._gw = arena.zeros(g.shape, dtype=g.dtype)
            self._gstage = None if self._act is not None else g
        self._gk = arena.zeros(self._kernel.shape,
                               dtype=np.result_type(x, g))
        self._gb = arena.zeros(self._bias.shape, dtype=g.dtype)
        self._g_in = g
        self._gx = (arena.zeros(x.shape, dtype=np.result_type(
            g, self._kernel)) if need_gx else None)
        return self._gx

    def execute_backward(self) -> None:
        g = self._gw
        if self._act is not None:
            self._act.execute_bwd(self._g_in, self.out, g)
        elif self._gstage is not None:
            np.copyto(g, self._gstage)
        if self._gx is not None:
            np.matmul(g, self._kernelT, out=self._gx)
        np.matmul(self._xT, g, out=self._gk)
        np.sum(g, axis=0, out=self._gb)
        grads = self._layer.grads
        grads["kernel"] = self._gk
        grads["bias"] = self._gb


class _ConvOp:
    """Fused conv -> bias -> activation for Conv2D and Conv1D.

    The im2col column matrix is a fixed workspace filled from a strided
    view of the (padded) input; the backward pass reuses the forward's
    columns for the kernel-gradient GEMM (eager rebuilds them — same
    values, one big copy cheaper) and then overwrites the same workspace
    with the column gradients before scattering them into the padded
    input-gradient buffer.  The padded border is written once at trace
    time and never touched again, replacing eager's per-step pad buffer.
    The 2-D scatter runs in eager's row-wise order.
    """

    def __init__(self, layer, x, n, arena):
        self._is2d = isinstance(layer, L.Conv2D)
        self._x = x
        k = layer.kernel_size
        kernel = layer.params["kernel"]
        cin, cout = kernel.shape[-2], kernel.shape[-1]
        self._kflat = int(np.prod(kernel.shape[:-1]))
        pad = (k - 1) // 2 if layer._effective_padding == "same" else 0
        self._pad = pad
        self.out = arena.zeros((n,) + layer.output_shape, dtype=x.dtype)
        if self._is2d:
            ho, wo = layer.output_shape[0], layer.output_shape[1]
            if pad:
                self._xp = arena.zeros(
                    (n, x.shape[1] + 2 * pad, x.shape[2] + 2 * pad, cin),
                    dtype=x.dtype)
                self._xp_int = self._xp[:, pad:pad + x.shape[1],
                                        pad:pad + x.shape[2], :]
            else:
                self._xp, self._xp_int = x, None
            s0, s1, s2, s3 = self._xp.strides
            self._pv = _as_strided(
                self._xp, shape=(n, ho, wo, k, k, cin),
                strides=(s0, s1, s2, s1, s2, s3), writeable=False)
            self._cols = arena.zeros((n, ho, wo, self._kflat), dtype=x.dtype)
            self._cols_src = self._cols.reshape(n, ho, wo, k, k, cin)
            self._nloc = n * ho * wo
        else:
            lo = layer.output_shape[0]
            if pad:
                self._xp = arena.zeros((n, x.shape[1] + 2 * pad, cin),
                                       dtype=x.dtype)
                self._xp_int = self._xp[:, pad:pad + x.shape[1], :]
            else:
                self._xp, self._xp_int = x, None
            s0, s1, s2 = self._xp.strides
            self._pv = _as_strided(
                self._xp, shape=(n, lo, k, cin),
                strides=(s0, s1, s1, s2), writeable=False)
            self._cols = arena.zeros((n, lo, self._kflat), dtype=x.dtype)
            self._cols_src = self._cols.reshape(n, lo, k, cin)
            self._nloc = n * lo
        self._act = (_ActKernel(layer.activation, self.out.shape,
                                self.out.dtype, arena)
                     if layer.activation else None)
        self._k2own = None
        self.rebind(layer)

    def rebind(self, layer) -> None:
        self._layer = layer
        kernel = layer.params["kernel"]
        self._kernel = kernel
        self._bias = layer.params["bias"]
        cout = kernel.shape[-1]
        k2 = kernel.reshape(self._kflat, cout)
        if np.shares_memory(k2, kernel):
            # contiguous kernel: the 2-D view eager re-derives per call
            self._k2, self._k2src = k2, None
        else:
            # entangled supernet view: eager's reshape copies the live
            # values on every call; refresh an owned 2-D buffer per step
            if self._k2own is None or self._k2own.shape != k2.shape \
                    or self._k2own.dtype != k2.dtype:
                self._k2own = np.zeros(k2.shape, dtype=k2.dtype)
            self._k2 = self._k2own
            self._k2src = self._k2own.reshape(kernel.shape)
        self._k2T = self._k2.T

    def execute_forward(self) -> None:
        if self._xp_int is not None:
            np.copyto(self._xp_int, self._x)
        np.copyto(self._cols_src, self._pv)
        if self._k2src is not None:
            np.copyto(self._k2src, self._kernel)
        out = self.out
        np.matmul(self._cols, self._k2, out=out)
        np.add(out, self._bias, out=out)
        if self._act is not None:
            self._act.execute_fwd(out, out)

    def trace_backward(self, g, need_gx, arena):
        cout = self._kernel.shape[-1]
        if g.flags.c_contiguous:
            self._g2 = g.reshape(self._nloc, cout)
            self._gw, self._gstage = g, None
        else:
            gw = arena.zeros(g.shape, dtype=g.dtype)
            self._g2 = gw.reshape(self._nloc, cout)
            self._gw = gw
            self._gstage = None if self._act is not None else g
        self._g_in = g
        self._cols2 = self._cols.reshape(self._nloc, self._kflat)
        self._cols2T = self._cols2.T
        gkdt = np.result_type(self._x, g)
        self._gk2 = arena.zeros((self._kflat, cout), dtype=gkdt)
        self._gk = self._gk2.reshape(self._kernel.shape)
        self._gb = arena.zeros(self._bias.shape, dtype=g.dtype)
        if not need_gx:
            self._gcols2 = None
            self._gxp = None
            return None
        gcdt = np.result_type(g, self._kernel)
        if gcdt == self._cols.dtype:
            self._gcols2 = self._cols2      # reuse the columns workspace
            gcols = self._cols
        else:
            gcols = arena.zeros(self._cols.shape, dtype=gcdt)
            self._gcols2 = gcols.reshape(self._nloc, self._kflat)
        self._gxp = arena.zeros(self._xp.shape, dtype=g.dtype)
        k, pad = self._layer.kernel_size, self._pad
        if self._is2d:
            # eager conv2d_backward's row-wise scatter order
            n, ho, wo, _ = self.out.shape
            cin = self._kernel.shape[-2]
            g5 = gcols.reshape(n, ho, wo, k, k * cin)
            _, hp, wp, _ = self._gxp.shape
            rows = self._gxp.reshape(n, hp, wp * cin)
            self._scatter = tuple(
                (rows[:, i:i + ho, x * cin:(x + k) * cin], g5[:, :, x, i, :])
                for i in range(k) for x in range(wo - 1, -1, -1))
            gx = (self._gxp[:, pad:pad + self._x.shape[1],
                            pad:pad + self._x.shape[2], :]
                  if pad else self._gxp)
        else:
            n, lo, _ = self.out.shape
            g4 = gcols.reshape(n, lo, k, self._kernel.shape[-2])
            self._scatter = tuple(
                (self._gxp[:, i:i + lo, :], g4[:, :, i, :])
                for i in range(k))
            gx = (self._gxp[:, pad:pad + self._x.shape[1], :]
                  if pad else self._gxp)
        return gx

    def execute_backward(self) -> None:
        g2 = self._g2
        if self._act is not None:
            self._act.execute_bwd(self._g_in, self.out, self._gw)
        elif self._gstage is not None:
            np.copyto(self._gw, self._gstage)
        np.matmul(self._cols2T, g2, out=self._gk2)
        np.sum(g2, axis=0, out=self._gb)
        grads = self._layer.grads
        grads["kernel"] = self._gk
        grads["bias"] = self._gb
        if self._gcols2 is not None:
            np.matmul(g2, self._k2T, out=self._gcols2)
            self._gxp.fill(0.0)
            for dst, src in self._scatter:
                np.add(dst, src, out=dst)
class _MaxPool2DOp:
    def __init__(self, layer, x, n, arena):
        p = layer.pool_size
        self._x = x
        h, w = x.shape[1], x.shape[2]
        c = x.shape[3]
        ho, wo = h // p, w // p
        self._p = p
        self.out = arena.zeros((n, ho, wo, c), dtype=x.dtype)
        self._xwf = arena.zeros((n, ho, wo, c, p * p), dtype=x.dtype)
        s0, s1, s2, s3 = x.strides
        # the window view in eager's transpose order (n,ho,wo,c,p,p)
        self._src6 = _as_strided(
            x, shape=(n, ho, wo, c, p, p),
            strides=(s0, p * s1, p * s2, s3, s1, s2), writeable=False)
        self._xwf6 = self._xwf.reshape(n, ho, wo, c, p, p)
        self._idx = arena.zeros((n, ho, wo, c), dtype=np.intp)

    def execute_forward(self) -> None:
        np.copyto(self._xwf6, self._src6)
        np.argmax(self._xwf, axis=-1, out=self._idx)
        np.amax(self._xwf, axis=-1, out=self.out)

    def trace_backward(self, g, need_gx, arena):
        n, ho, wo, c = self.out.shape
        p = self._p
        self._gw = arena.zeros((n, ho, wo, c, p * p), dtype=g.dtype)
        self._idx5 = np.expand_dims(self._idx, -1)
        self._g5 = np.expand_dims(g, -1)
        gx = arena.zeros(self._x.shape, dtype=g.dtype)
        s0, s1, s2, s3 = gx.strides
        self._gx6 = _as_strided(
            gx, shape=(n, ho, p, wo, p, c),
            strides=(s0, p * s1, s1, p * s2, s2, s3), writeable=True)
        self._gw6t = self._gw.reshape(n, ho, wo, c, p, p) \
            .transpose(0, 1, 4, 2, 5, 3)
        return gx

    def execute_backward(self) -> None:
        self._gw.fill(0.0)
        np.put_along_axis(self._gw, self._idx5, self._g5, axis=-1)
        np.copyto(self._gx6, self._gw6t)


class _MaxPool1DOp:
    def __init__(self, layer, x, n, arena):
        p = layer.pool_size
        self._x = x
        lo = x.shape[1] // p
        c = x.shape[2]
        self._p = p
        self.out = arena.zeros((n, lo, c), dtype=x.dtype)
        s0, s1, s2 = x.strides
        self._xv = _as_strided(x, shape=(n, lo, p, c),
                               strides=(s0, p * s1, s1, s2), writeable=False)
        self._idx = arena.zeros((n, lo, c), dtype=np.intp)

    def execute_forward(self) -> None:
        np.argmax(self._xv, axis=2, out=self._idx)
        np.amax(self._xv, axis=2, out=self.out)

    def trace_backward(self, g, need_gx, arena):
        n, lo, c = self.out.shape
        p = self._p
        self._gv = arena.zeros((n, lo, p, c), dtype=g.dtype)
        self._idx4 = np.expand_dims(self._idx, 2)
        self._g4 = np.expand_dims(g, 2)
        gx = arena.zeros(self._x.shape, dtype=g.dtype)
        s0, s1, s2 = gx.strides
        self._gxw = _as_strided(gx, shape=(n, lo, p, c),
                                strides=(s0, p * s1, s1, s2), writeable=True)
        return gx

    def execute_backward(self) -> None:
        self._gv.fill(0.0)
        np.put_along_axis(self._gv, self._idx4, self._g4, axis=2)
        np.copyto(self._gxw, self._gv)


class _AvgPool2DOp:
    def __init__(self, layer, x, n, arena):
        p = layer.pool_size
        self._x = x
        h, w, c = x.shape[1], x.shape[2], x.shape[3]
        ho, wo = h // p, w // p
        self._p = p
        self.out = arena.zeros((n, ho, wo, c), dtype=x.dtype)
        s0, s1, s2, s3 = x.strides
        self._xv6 = _as_strided(
            x, shape=(n, ho, p, wo, p, c),
            strides=(s0, p * s1, s1, p * s2, s2, s3), writeable=False)

    def execute_forward(self) -> None:
        np.mean(self._xv6, axis=(2, 4), out=self.out)

    def trace_backward(self, g, need_gx, arena):
        n, ho, wo, c = self.out.shape
        p = self._p
        self._g = g
        self._tmp = arena.zeros((n, ho, wo, c), dtype=g.dtype)
        self._tmp6 = self._tmp.reshape(n, ho, 1, wo, 1, c)
        gx = arena.zeros(self._x.shape, dtype=g.dtype)
        s0, s1, s2, s3 = gx.strides
        self._gx6 = _as_strided(
            gx, shape=(n, ho, p, wo, p, c),
            strides=(s0, p * s1, s1, p * s2, s2, s3), writeable=True)
        return gx

    def execute_backward(self) -> None:
        np.divide(self._g, self._p * self._p, out=self._tmp)
        np.copyto(self._gx6, self._tmp6)


class _AvgPool1DOp:
    def __init__(self, layer, x, n, arena):
        p = layer.pool_size
        self._x = x
        lo, c = x.shape[1] // p, x.shape[2]
        self._p = p
        self.out = arena.zeros((n, lo, c), dtype=x.dtype)
        s0, s1, s2 = x.strides
        self._xv = _as_strided(x, shape=(n, lo, p, c),
                               strides=(s0, p * s1, s1, s2), writeable=False)

    def execute_forward(self) -> None:
        np.mean(self._xv, axis=2, out=self.out)

    def trace_backward(self, g, need_gx, arena):
        n, lo, c = self.out.shape
        p = self._p
        self._g = g
        self._tmp = arena.zeros((n, lo, c), dtype=g.dtype)
        self._tmp4 = self._tmp.reshape(n, lo, 1, c)
        gx = arena.zeros(self._x.shape, dtype=g.dtype)
        s0, s1, s2 = gx.strides
        self._gxw = _as_strided(gx, shape=(n, lo, p, c),
                                strides=(s0, p * s1, s1, s2), writeable=True)
        return gx

    def execute_backward(self) -> None:
        np.divide(self._g, self._p, out=self._tmp)
        np.copyto(self._gxw, self._tmp4)


class _BatchNormOp:
    def __init__(self, layer, x, n, arena):
        self._x = x
        c = x.shape[-1]
        dt = x.dtype
        self._axes = tuple(range(x.ndim - 1))
        self._m = int(np.prod([x.shape[a] for a in self._axes]))
        self.out = arena.zeros(x.shape, dtype=dt)
        self._mean = arena.zeros((c,), dtype=dt)
        self._var = arena.zeros((c,), dtype=dt)
        self._inv = arena.zeros((c,), dtype=dt)
        self._cbuf = arena.zeros((c,), dtype=dt)
        self._xhat = arena.zeros(x.shape, dtype=dt)
        self.rebind(layer)

    def rebind(self, layer) -> None:
        self._layer = layer
        self._momentum = layer.momentum
        self._eps = layer.eps
        self._gamma = layer.params["gamma"]
        self._beta = layer.params["beta"]
        self._mm = layer.params["moving_mean"]
        self._mv = layer.params["moving_var"]

    def execute_forward(self) -> None:
        x, axes = self._x, self._axes
        mean, var, inv, cbuf = self._mean, self._var, self._inv, self._cbuf
        np.mean(x, axis=axes, out=mean)
        np.var(x, axis=axes, out=var)
        m = self._momentum
        mm, mv = self._mm, self._mv
        np.multiply(mm, m, out=mm)
        np.multiply(mean, 1 - m, out=cbuf)
        np.add(mm, cbuf, out=mm)
        np.multiply(mv, m, out=mv)
        np.multiply(var, 1 - m, out=cbuf)
        np.add(mv, cbuf, out=mv)
        np.add(var, self._eps, out=inv)
        np.sqrt(inv, out=inv)
        np.divide(1.0, inv, out=inv)
        xhat, out = self._xhat, self.out
        np.subtract(x, mean, out=xhat)
        np.multiply(xhat, inv, out=xhat)
        np.multiply(xhat, self._gamma, out=out)
        np.add(out, self._beta, out=out)

    def trace_backward(self, g, need_gx, arena):
        c = self._gamma.shape[0]
        rt = np.result_type(g, self._x)
        self._g = g
        self._tmp = arena.zeros(self._x.shape, dtype=rt)
        self._ggamma = arena.zeros((c,), dtype=rt)
        self._gbeta = arena.zeros((c,), dtype=g.dtype)
        self._gx = arena.zeros(self._x.shape, dtype=g.dtype) \
            if need_gx else None
        return self._gx

    def execute_backward(self) -> None:
        g, axes, tmp = self._g, self._axes, self._tmp
        np.multiply(g, self._xhat, out=tmp)
        np.sum(tmp, axis=axes, out=self._ggamma)
        np.sum(g, axis=axes, out=self._gbeta)
        grads = self._layer.grads
        grads["gamma"] = self._ggamma
        grads["beta"] = self._gbeta
        gx = self._gx
        if gx is not None:
            m, cbuf = self._m, self._cbuf
            np.multiply(self._gamma, self._inv, out=cbuf)
            np.divide(cbuf, m, out=cbuf)
            np.multiply(g, m, out=gx)
            np.subtract(gx, self._gbeta, out=gx)
            np.multiply(self._xhat, self._ggamma, out=tmp)
            np.subtract(gx, tmp, out=gx)
            np.multiply(gx, cbuf, out=gx)


class _DropoutOp:
    def __init__(self, layer, x, n, arena):
        self._x = x
        floats = (np.float32, np.float64)  # lint: ignore[R001]
        self._draw_dtype = x.dtype if x.dtype in floats \
            else np.float64  # lint: ignore[R001]
        self._rate = layer.rate
        self._scale = 1.0 / (1.0 - layer.rate)
        self.out = arena.zeros(x.shape, dtype=x.dtype)
        self._fdraw = arena.zeros(x.shape, dtype=self._draw_dtype)
        self._bmask = arena.zeros(x.shape, dtype=np.bool_)
        self._mask = arena.zeros(x.shape, dtype=x.dtype)
        self.rebind(layer)

    def rebind(self, layer) -> None:
        self._rng = layer._rng

    def execute_forward(self) -> None:
        # identical stream consumption and values as the eager kernel:
        # one rng.random draw of x.shape in the same dtype
        self._rng.random(out=self._fdraw, dtype=self._draw_dtype)
        mask = self._mask
        np.greater_equal(self._fdraw, self._rate, out=self._bmask)
        np.copyto(mask, self._bmask)
        np.multiply(mask, self._scale, out=mask)
        np.multiply(self._x, mask, out=self.out)

    def trace_backward(self, g, need_gx, arena):
        self._g = g
        if g.flags.c_contiguous:
            self._gx = g
        else:
            self._gx = arena.zeros(g.shape, dtype=g.dtype)
        return self._gx

    def execute_backward(self) -> None:
        np.multiply(self._g, self._mask, out=self._gx)


class _ActivationOp:
    def __init__(self, layer, x, n, arena):
        self._x = x
        self.out = arena.zeros(x.shape, dtype=x.dtype)
        self._act = _ActKernel(layer.fn, x.shape, x.dtype, arena)

    def execute_forward(self) -> None:
        self._act.execute_fwd(self._x, self.out)

    def trace_backward(self, g, need_gx, arena):
        self._g = g
        self._gx = g if g.flags.c_contiguous \
            else arena.zeros(g.shape, dtype=g.dtype)
        return self._gx

    def execute_backward(self) -> None:
        self._act.execute_bwd(self._g, self.out, self._gx)


class _ConcatOp:
    def __init__(self, layer, xs, n, arena):
        widths = [x.shape[-1] for x in xs]
        total = int(sum(widths))
        self._xs = xs
        self.out = arena.zeros((n, total), dtype=xs[0].dtype)
        bounds = np.cumsum([0] + widths)
        self._views = tuple(self.out[:, bounds[i]:bounds[i + 1]]
                            for i in range(len(xs)))
        self._bounds = bounds

    def execute_forward(self) -> None:
        for view, x in zip(self._views, self._xs):
            np.copyto(view, x)

    def split_views(self, g):
        b = self._bounds
        return tuple(g[:, b[i]:b[i + 1]] for i in range(len(self._xs)))
# ---------------------------------------------------------------------------
# StepPlan
# ---------------------------------------------------------------------------

_POOL_OPS = {
    ("max", 3): _MaxPool2DOp,
    ("avg", 3): _AvgPool2DOp,
    ("max", 2): _MaxPool1DOp,
    ("avg", 2): _AvgPool1DOp,
}


class StepPlan:
    """One compiled training step for a concrete (architecture, batch
    shape, dtype, loss) tuple.  Trace in ``__init__`` (allocates the
    arena), re-target with :meth:`bind`, execute with :meth:`run_step`.

    A plan instance is **not** thread-safe (its buffers are the whole
    point); :class:`PlanCache` hands each concurrent evaluation its own
    instance.
    """

    def __init__(self, network, batch_size, x_dtypes, y_dtype, y_shape,
                 loss):
        self.key = plan_key(network, batch_size, x_dtypes, y_dtype,
                            y_shape, loss)
        self.batch_size = int(batch_size)
        self.steps = 0
        arena = _Arena()
        n = self.batch_size
        layers = network._layers
        nl = len(layers)

        # -- forward: slots + op schedule -------------------------------
        self._x_slots = [
            arena.zeros((n,) + tuple(shape), dtype=dt)
            for shape, dt in zip(network.input_shapes, x_dtypes)]
        self._multi = len(self._x_slots) > 1
        self._y = arena.zeros((n,) + tuple(y_shape), dtype=y_dtype)
        parents = []        # per layer: list of parent indices (-1-i = input i)
        index = {f"input:{i}": -1 - i
                 for i in range(len(network.input_shapes))}
        for li, layer in enumerate(layers):
            parents.append([index[p] for p in network._inputs_of[layer.name]])
            index[layer.name] = li
        self._parents = parents

        slots: list = [None] * nl

        def _slot(pi):
            return self._x_slots[-1 - pi] if pi < 0 else slots[pi]

        ops: list = [None] * nl
        fwd: list = []
        for li, layer in enumerate(layers):
            xs = [_slot(pi) for pi in parents[li]]
            if isinstance(layer, L.Concatenate):
                op = _ConcatOp(layer, xs, n, arena)
            elif isinstance(layer, L.Dense):
                op = _DenseOp(layer, xs[0], n, arena)
            elif isinstance(layer, (L.Conv2D, L.Conv1D)):
                op = _ConvOp(layer, xs[0], n, arena)
            elif isinstance(layer, L._Pool):
                op = None if layer._noop else \
                    _POOL_OPS[(layer.KIND, layer.NDIM)](layer, xs[0], n, arena)
            elif isinstance(layer, L.BatchNorm):
                op = _BatchNormOp(layer, xs[0], n, arena)
            elif isinstance(layer, L.Dropout):
                op = None if layer.rate == 0.0 else \
                    _DropoutOp(layer, xs[0], n, arena)
            elif isinstance(layer, L.Activation):
                op = _ActivationOp(layer, xs[0], n, arena)
            elif isinstance(layer, L.Flatten):
                op = None
                slots[li] = xs[0].reshape(n, -1)
            elif isinstance(layer, L.Identity):
                op = None
            else:
                raise PlanUnsupportedError(
                    f"no plan support for layer type {type(layer).__name__}")
            ops[li] = op
            if op is not None:
                fwd.append(op.execute_forward)
                slots[li] = op.out
            elif slots[li] is None:
                slots[li] = xs[0]           # pass-through alias
        self._ops = ops
        self._fwd_ops = fwd

        # -- loss -------------------------------------------------------
        out_idx = nl - 1
        logits = slots[out_idx]
        if loss == "categorical_crossentropy":
            if logits.ndim != 2:
                raise PlanUnsupportedError(
                    "categorical_crossentropy plan needs 2-D logits")
            self._loss = _CELossKernel(logits, self._y, arena)
        else:
            self._loss = _RegLossKernel(loss, logits, self._y, arena)

        # -- backward analysis: dead-gradient elimination ---------------
        live = network.backward_liveness()
        runs_bwd = [live[layer.name] for layer in layers]

        counts = [0] * nl
        for li in range(nl):
            if not runs_bwd[li]:
                continue
            for pi in parents[li]:
                if pi >= 0 and runs_bwd[pi]:
                    counts[pi] += 1

        gdt = self._loss.grad.dtype
        gslot: list = [None] * nl
        seen_acc = [False] * nl
        for li in range(nl):
            if counts[li] > 1:
                gslot[li] = arena.zeros(slots[li].shape, dtype=gdt)
        if runs_bwd[out_idx]:
            if counts[out_idx] == 0:
                gslot[out_idx] = self._loss.grad
            else:
                raise PlanUnsupportedError(
                    "output layer with internal consumers")

        bwd: list = []

        def provide(pi, arr):
            if pi < 0:
                return                      # input grads are never used
            if counts[pi] > 1:
                acc = _AccumOp(gslot[pi], arr, not seen_acc[pi])
                seen_acc[pi] = True
                bwd.append(acc.execute_accum)
            else:
                gslot[pi] = arr

        for li in range(nl - 1, -1, -1):
            if not runs_bwd[li]:
                continue
            g = gslot[li]
            if g is None:
                raise AssertionError(
                    f"no gradient routed to layer {layers[li].name}")
            layer, op = layers[li], ops[li]
            pis = parents[li]
            if isinstance(layer, L.Concatenate):
                views = op.split_views(g)
                for pi, view in zip(pis, views):
                    if pi >= 0 and runs_bwd[pi]:
                        provide(pi, view)
                continue
            pi = pis[0]
            need_gx = pi >= 0 and runs_bwd[pi]
            if op is None:                  # alias layer
                if not need_gx:
                    continue
                if isinstance(layer, L.Flatten):
                    pshape = _slot(pi).shape
                    if g.flags.c_contiguous:
                        provide(pi, g.reshape(pshape))
                    else:
                        pbuf = arena.zeros(pshape, dtype=g.dtype)
                        copy = _CopyOp(pbuf.reshape(g.shape), g)
                        bwd.append(copy.execute_copy)
                        provide(pi, pbuf)
                else:                       # Identity / no-op pool / p=0 drop
                    provide(pi, g)
                continue
            gx = op.trace_backward(g, need_gx, arena)
            bwd.append(op.execute_backward)
            if need_gx and gx is not None:
                provide(pi, gx)
        self._bwd_ops = bwd
        self.arena_bytes = arena.nbytes
        self._sig = self.key[0]

    # ------------------------------------------------------------------
    def bind(self, network) -> "StepPlan":
        """Re-target the plan at ``network`` (same structural signature):
        parameter tensors, gradient dicts and dropout rng streams are
        re-pointed; all buffers are reused as-is."""
        if network_signature(network) != self._sig:
            raise ValueError("network does not match this plan's signature")
        for li, layer in enumerate(network._layers):
            op = self._ops[li]
            rebind = getattr(op, "rebind", None)
            if rebind is not None:
                rebind(layer)
        return self

    # ------------------------------------------------------------------
    def run_step(self, x_train, y_train, idx) -> float:
        """Execute one full-batch training step (gather, forward, loss,
        backward); returns the batch loss.  The optimizer step stays in
        the training loop — it is already in-place/allocation-free
        (R003).  Steady state performs no array allocations (R010)."""
        # mode="clip" writes straight into the slot; the default "raise"
        # mode gathers into an internal temporary first.  Batch indices
        # come from rng.permutation(n), always in range, so clipping
        # never alters a value.
        xs = self._x_slots
        if self._multi:
            for src, slot in zip(x_train, xs):
                np.take(src, idx, axis=0, out=slot, mode="clip")
        else:
            np.take(x_train, idx, axis=0, out=xs[0], mode="clip")
        np.take(y_train, idx, axis=0, out=self._y, mode="clip")
        for op in self._fwd_ops:
            op()
        lval = self._loss.execute_loss()
        for op in self._bwd_ops:
            op()
        self.steps += 1
        return lval


# ---------------------------------------------------------------------------
# PlanCache
# ---------------------------------------------------------------------------


class PlanCache:
    """Thread-safe check-out/check-in pool of traced plans, admitting a
    network on its second sighting.

    ``acquire`` pops an idle instance for the key (hit).  Without one it
    is a miss: a key never seen before is only recorded and ``acquire``
    raises :class:`PlanUnsupportedError`, so ``fit`` trains that network
    eagerly (``deferred``, a subset of ``misses``); a key seen before is
    traced outside the lock (concurrent misses may trace twice — both
    instances join the pool, a duplicate trace, never a correctness
    issue).  ``release`` returns the instance; idle keys are LRU-bounded
    by ``max_plans`` and sightings by ``32 * max_plans``, so a long
    search over many architectures cannot grow either without bound."""

    def __init__(self, max_plans: int = 8):
        # deferred import: repro.analysis imports repro.tensor, so a
        # module-level import would be circular
        from ..analysis.lockcheck import make_lock
        self.max_plans = int(max_plans)
        self._lock = make_lock("PlanCache._lock")
        self._idle: "OrderedDict[tuple, list[StepPlan]]" = OrderedDict()
        self._seen: "OrderedDict[tuple, None]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.deferred = 0
        self.evictions = 0
        self.traces = 0
        self.trace_seconds = 0.0

    def acquire(self, network, batch_size, x_dtypes, y_dtype, y_shape,
                loss) -> StepPlan:
        key = plan_key(network, batch_size, x_dtypes, y_dtype, y_shape, loss)
        plan = None
        with self._lock:
            first = key not in self._seen
            self._seen[key] = None
            self._seen.move_to_end(key)
            if len(self._seen) > _SEEN_PER_PLAN * self.max_plans:
                self._seen.popitem(last=False)
            bucket = self._idle.get(key)
            if bucket:
                plan = bucket.pop()
                self._idle.move_to_end(key)
                self.hits += 1
            else:
                self.misses += 1
                if first:
                    self.deferred += 1
        if plan is None:
            if first:
                raise PlanUnsupportedError(
                    "first sighting of this network; planned from the next")
            t0 = time.perf_counter()
            plan = StepPlan(network, batch_size, x_dtypes, y_dtype,
                            y_shape, loss)
            elapsed = time.perf_counter() - t0
            with self._lock:
                self.traces += 1
                self.trace_seconds += elapsed
        return plan.bind(network)

    def release(self, plan: StepPlan) -> None:
        with self._lock:
            bucket = self._idle.setdefault(plan.key, [])
            bucket.append(plan)
            self._idle.move_to_end(plan.key)
            while len(self._idle) > self.max_plans:
                _, evicted = self._idle.popitem(last=False)
                self.evictions += len(evicted)

    def clear(self) -> None:
        """Drop every idle plan and every sighting: a cleared cache is
        fully cold."""
        with self._lock:
            self._idle.clear()
            self._seen.clear()

    def stats(self) -> dict:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "deferred": self.deferred,
                "traces": self.traces,
                "evictions": self.evictions,
                "trace_seconds": self.trace_seconds,
                "idle_keys": len(self._idle),
            }

    def stats_since(self, before: dict) -> dict:
        """:meth:`stats` with the counters reduced to what accrued since
        the ``before`` snapshot; ``idle_keys`` is a level, kept as is."""
        now = self.stats()
        for key in ("hits", "misses", "deferred", "traces", "evictions",
                    "trace_seconds"):
            now[key] -= before[key]
        return now


#: per-process default cache; boxed so the benign first-call race just
#: builds a throwaway instance
_default_cache: list = [None]


def get_plan_cache() -> PlanCache:
    cache = _default_cache[0]
    if cache is None:
        cache = _default_cache[0] = PlanCache()
    return cache
