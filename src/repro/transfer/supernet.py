"""Supernet weight entanglement: zero-copy transfer via shared superweights.

The checkpoint transfer path (PR 2/PR 4) copies tensors on every
provider→receiver handoff — load, selective copy, save.  This module
retires the copy entirely, TangleNAS-style: one :class:`SuperNet` owns a
single *entangled* parameter store per search space, sized to the
maximum width any operation choice needs at each position, and every
candidate trains through **read-write views sliced from the leading
corner** of those superweights.  "Transfer" becomes view re-binding:

- the store key is the candidate layer's tensor name
  (``"{node}_{kind}.{param}"``), so every choice of the same kind at the
  same node shares one superweight — a 256-unit and a 512-unit dense
  choice train the same leading 256 columns;
- superweights grow on demand to the element-wise maximum shape seen so
  far, preserving already-trained content in the leading corner (growth
  is amortised store management, not a per-transfer cost);
- LP/LCS provider selection keeps deciding *which* candidate's training
  signal to inherit: layers matched against the provider's shape
  sequence keep the store's current (trained) values, unmatched layers
  are re-initialised in place from the candidate's own fresh build —
  exactly the selective semantics of :func:`transfer_weights`, minus the
  copies.

Gradient correctness rests on ``repro.tensor`` invariants the R003 lint
rule already enforces: optimizer steps and batch-norm running-stat
updates are fully in-place (``out=`` ufuncs), so training a bound view
writes straight through to the shared superweight storage.  The
finite-difference tests in ``tests/test_supernet.py`` pin this.

Failure containment: a candidate that explodes mid-training (non-finite
loss/score) has been writing garbage into shared storage, so
:meth:`SuperNet.scrub` re-initialises exactly the regions it was bound
to — the store stays finite and later candidates cold-start those
slices, mirroring how a failed candidate never produces a checkpoint.

Concurrency: thread pools share the store under :attr:`SuperNet._lock`
for bind/grow/scrub; concurrent *training* of overlapping slices is
benign hogwild (last writer wins per element).  Process pools are
rejected by the scheduler — a worker process would train a private copy
and the updates could never write back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..analysis.lockcheck import make_lock
from .matching import MATCHERS, get_matcher
from .shapeseq import arch_shape_sequence
from .transfer import _cached_match

__all__ = ["BindStats", "SliceDescriptor", "SuperNet",
           "SupernetTransferBackend"]

#: Lock-discipline assertion (lint R004/R007): all store mutation and
#: bind/grow/scrub accounting happens under ``SuperNet._lock`` — either
#: lexically or in helpers (``_ensure``) only ever called with the lock
#: held (the analyzer's entry-lock propagation proves that).  Training
#: *through* bound views is deliberately lock-free hogwild and out of
#: scope here.
_GUARDED_ATTRS = ("_store", "allocations", "grows", "binds", "scrubs",
                  "reinit_elements", "scrubbed_elements")


@dataclass
class BindStats:
    """What one bind did.  Duck-types :class:`TransferStats` where the
    scheduler cares (``transferred`` / ``coverage`` / ``copied_bytes``):
    ``coverage`` is the fraction of the receiver's parameter elements
    that inherited existing (trained) store values, and ``copied_bytes``
    is zero by construction — binds move views, not data."""

    matcher: str
    receiver_layers: int = 0
    receiver_tensors: int = 0
    receiver_elements: int = 0
    num_layers_inherited: int = 0
    inherited_elements: int = 0
    #: parameter tensors rebound to superweight views (all of them)
    resliced_params: int = 0
    #: store elements re-initialised in place (unmatched layers)
    reinit_elements: int = 0

    @property
    def coverage(self) -> float:
        if self.receiver_elements == 0:
            return 0.0
        return self.inherited_elements / self.receiver_elements

    @property
    def transferred(self) -> bool:
        return self.num_layers_inherited > 0

    @property
    def copied_bytes(self) -> int:
        return 0


@dataclass(frozen=True)
class SliceDescriptor:
    """Provider reference for the supernet backend.

    Where the checkpoint path ships the provider's weight payload to
    the worker, the supernet path ships this: which
    candidate to inherit from and how to match against it.  The worker
    resolves it into view bindings against the shared store — a few
    dozen bytes instead of megabytes."""

    provider_id: Optional[int]
    provider_arch_seq: Optional[tuple]
    matcher: str = "lcs"


class SuperNet:
    """The entangled parameter store of one search space.

    Superweights are float32 arrays keyed by candidate tensor name
    (``"layer.param"``); :meth:`bind` hands a built network read-write
    leading-corner views of them.  All store mutation (allocate, grow,
    re-init, scrub) happens under the internal lock.
    """

    def __init__(self, space, seed: int = 0):
        self.space = space
        self.seed = seed
        self._lock = make_lock("SuperNet._lock", reentrant=True)
        self._store: dict[str, np.ndarray] = {}
        # dedicated stream: store initialisation never perturbs the
        # scheduler's provider-selection rng
        self._rng = np.random.default_rng((seed, 0x5E7))
        self.allocations = 0
        self.grows = 0
        self.binds = 0
        self.scrubs = 0
        self.reinit_elements = 0
        self.scrubbed_elements = 0

    # -- store management ----------------------------------------------
    def _fresh(self, layer, pname: str, shape: tuple) -> np.ndarray:
        """Fresh values for one (layer, param) region, drawn with the
        layer's own initializer for that parameter."""
        return layer.initializer(pname)(shape, self._rng)

    def _ensure(self, name: str, layer, pname: str,
                shape: tuple) -> np.ndarray:
        """The superweight backing ``name``, allocated or grown to cover
        ``shape``.  Growth preserves trained content in the leading
        corner and fresh-initialises the new outer region; live views of
        the old array keep their (stale) storage — benign, they belong
        to models that already finished or will be re-bound."""
        current = self._store.get(name)
        if current is None:
            self._store[name] = self._fresh(layer, pname, shape)
            self.allocations += 1
            return self._store[name]
        if current.ndim != len(shape):
            raise ValueError(
                f"superweight {name!r} rank changed: store has "
                f"{current.shape}, candidate wants {shape}")
        if all(s <= c for s, c in zip(shape, current.shape)):
            return current
        grown_shape = tuple(max(s, c)
                            for s, c in zip(shape, current.shape))
        grown = self._fresh(layer, pname, grown_shape)
        np.copyto(grown[tuple(slice(0, c) for c in current.shape)], current)
        self._store[name] = grown
        self.grows += 1
        return grown

    @staticmethod
    def _corner(base: np.ndarray, shape: tuple) -> np.ndarray:
        """Read-write leading-corner view of ``base`` with ``shape``."""
        return base[tuple(slice(0, s) for s in shape)]

    # -- the transfer operation ----------------------------------------
    def bind(self, model, provider_seq=None, matcher="lcs") -> BindStats:
        """Re-bind ``model``'s parameters to superweight views.

        ``provider_seq`` is the *shape sequence* of the provider
        candidate (or ``None`` for a cold start).  Layers the LP/LCS
        match aligns with the provider keep the store's current values —
        that is the inheritance; unmatched layers (and every layer of a
        cold start) get the model's own fresh initialisation written
        into their store region first.  Either way the layer ends up
        training through the shared storage in place.
        """
        match_name = matcher if isinstance(matcher, str) else getattr(
            matcher, "__name__", "custom")
        layers = model.parameterized_layers()
        receiver_seq = tuple(layer.signature() for layer in layers)
        inherited: frozenset = frozenset()
        if provider_seq is not None:
            if isinstance(matcher, str) and matcher in MATCHERS:
                match = _cached_match(matcher, tuple(provider_seq),
                                      receiver_seq)
            else:
                match = get_matcher(matcher)(tuple(provider_seq),
                                             receiver_seq)
            inherited = frozenset(match.receiver_indices())
        stats = BindStats(matcher=match_name, receiver_layers=len(layers))
        bound: dict[str, np.ndarray] = {}
        with self._lock:
            for j, layer in enumerate(layers):
                inherit = j in inherited
                for pname, arr in layer.params.items():
                    name = f"{layer.name}.{pname}"
                    base = self._ensure(name, layer, pname, arr.shape)
                    view = self._corner(base, arr.shape)
                    if not inherit:
                        # selective semantics: an unmatched layer starts
                        # from the candidate's own initialisation, just
                        # like an unmatched layer under copy-transfer
                        np.copyto(view, arr)
                        stats.reinit_elements += int(arr.size)
                    else:
                        stats.inherited_elements += int(arr.size)
                    bound[name] = view
                    stats.resliced_params += 1
                    stats.receiver_tensors += 1
                    stats.receiver_elements += int(arr.size)
                if inherit:
                    stats.num_layers_inherited += 1
            model.bind_weights(bound)
            self.binds += 1
            self.reinit_elements += stats.reinit_elements
        return stats

    # -- failure containment -------------------------------------------
    def scrub(self, model) -> int:
        """Re-initialise every store region ``model`` maps to.

        Called on the estimation failure path (exploded training,
        non-finite score): the candidate has been writing through its
        views, so its slices are reset to fresh values — the shared
        store stays finite and later candidates cold-start there.
        Returns the number of elements scrubbed."""
        scrubbed = 0
        with self._lock:
            for layer in model.parameterized_layers():
                for pname, arr in layer.params.items():
                    base = self._store.get(f"{layer.name}.{pname}")
                    if base is None:
                        continue
                    shape = tuple(min(s, c)
                                  for s, c in zip(arr.shape, base.shape))
                    region = self._corner(base, shape)
                    np.copyto(region, self._fresh(layer, pname, shape))
                    scrubbed += int(region.size)
            self.scrubs += 1
            self.scrubbed_elements += scrubbed
        return scrubbed

    # -- introspection --------------------------------------------------
    def items(self) -> list:
        """``(name, superweight)`` snapshot — the live arrays, for tests
        and consistency checks; treat them as read-only."""
        with self._lock:
            return list(self._store.items())

    @property
    def num_tensors(self) -> int:
        with self._lock:
            return len(self._store)

    @property
    def num_elements(self) -> int:
        with self._lock:
            return int(sum(a.size for a in self._store.values()))

    @property
    def nbytes(self) -> int:
        with self._lock:
            return int(sum(a.nbytes for a in self._store.values()))

    def stats(self) -> dict:
        with self._lock:
            return {
                "tensors": len(self._store),
                "elements": int(sum(a.size for a in self._store.values())),
                "nbytes": int(sum(a.nbytes for a in self._store.values())),
                "allocations": self.allocations,
                "grows": self.grows,
                "binds": self.binds,
                "scrubs": self.scrubs,
                "reinit_elements": self.reinit_elements,
                "scrubbed_elements": self.scrubbed_elements,
            }

    def __repr__(self):
        s = self.stats()
        return (f"<SuperNet {self.space.name}: {s['tensors']} superweights "
                f"{s['nbytes']}B, {s['binds']} binds, {s['grows']} grows>")


class SupernetTransferBackend:
    """The zero-copy transfer backend the scheduler plugs in for
    ``run_search(transfer_backend="supernet")``.

    Provider selection (LP/LCS policy) is unchanged; this backend turns
    the selected provider into a :class:`SliceDescriptor` (its arch_seq
    plus the matcher) and resolves descriptors into view bindings on the
    evaluator side.  The provider's shape sequence is derived statically
    from its arch_seq — no weight payload is ever loaded or shipped.
    """

    kind = "supernet"

    def __init__(self, supernet, matcher: str = "lcs"):
        if not isinstance(supernet, SuperNet):
            supernet = SuperNet(supernet)      # a search space
        self.supernet = supernet
        self.matcher = matcher

    @property
    def space(self):
        return self.supernet.space

    def describe(self, provider_id: Optional[int],
                 provider_arch_seq) -> SliceDescriptor:
        """The slice descriptor shipped to the worker instead of the
        provider's weights."""
        seq = None if provider_arch_seq is None else tuple(provider_arch_seq)
        return SliceDescriptor(provider_id, seq, self.matcher)

    def bind(self, model, provider_arch_seq=None) -> BindStats:
        """Resolve a provider (by arch_seq) into view bindings on
        ``model``.  ``None`` binds a cold start (all slices take the
        model's fresh initialisation)."""
        provider_seq = None
        if provider_arch_seq is not None:
            provider_seq = arch_shape_sequence(self.space,
                                               provider_arch_seq)
        return self.supernet.bind(model, provider_seq=provider_seq,
                                  matcher=self.matcher)

    def scrub(self, model) -> int:
        return self.supernet.scrub(model)

    def stats(self) -> dict:
        return {"matcher": self.matcher, **self.supernet.stats()}

    def __repr__(self):
        return (f"<SupernetTransferBackend matcher={self.matcher} "
                f"{self.supernet!r}>")
