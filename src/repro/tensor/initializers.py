"""Weight initializers with seeded RNG plumbing.

Every initializer fills a preallocated tensor in place,
``init(out, rng)``, so the caller controls determinism by passing a
``numpy.random.Generator`` and decides where the tensor lives.
"""

from __future__ import annotations

import numpy as np


def _fans(shape) -> tuple[int, int]:
    if len(shape) == 2:          # dense (in, out)
        return shape[0], shape[1]
    # conv kernels (..., Cin, Cout): receptive field x channels
    receptive = int(np.prod(shape[:-2]))
    return receptive * shape[-2], receptive * shape[-1]


def glorot_uniform(out, rng) -> None:
    """U(-l, l) with l = sqrt(6 / (fan_in + fan_out)): one float64 draw,
    hence one 64-bit step of ``rng``'s bit generator, per element."""
    fan_in, fan_out = _fans(out.shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    out[...] = rng.uniform(-limit, limit, size=out.shape)


def zeros(out, rng=None) -> None:
    out.fill(0.0)


def ones(out, rng=None) -> None:
    out.fill(1.0)


def skip(init, size: int, rng) -> None:
    """Advance ``rng`` past the draws ``init`` makes for a tensor of
    ``size`` elements, so every later tensor draws the bits it would
    have drawn had this one been initialised."""
    if init is glorot_uniform:
        rng.bit_generator.advance(size)
