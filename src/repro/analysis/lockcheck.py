"""Runtime lock sanitizer: instrumented locks that catch ordering bugs.

The static analyzer (:mod:`repro.analysis.concurrency`) proves lexical
properties — writes under locks, acquisition nesting — but cannot see
orders that only materialize at runtime (a callback acquiring through an
indirection, a test wiring two components the source never composes).
:class:`SanitizedLock` closes that gap: a drop-in replacement for
``threading.Lock`` / ``threading.RLock`` that, per thread, records the
stack of locks currently held and checks every new acquisition against

1. the *observed* order history — acquiring ``B`` while holding ``A``
   records the edge ``A -> B``; if the opposite edge ``B -> A`` was ever
   observed (on any thread), that is an **inversion**: two threads taking
   the pair in opposite orders can deadlock;
2. the *declared* canonical hierarchy (:data:`LOCK_HIERARCHY`, the one
   place the repo's lock order is written down) — a ranked lock may only
   be acquired while holding locks of strictly lower rank;
3. **re-entry**: a thread re-acquiring a non-reentrant lock it already
   holds would deadlock silently; the sanitizer raises
   :class:`LockCheckError` immediately instead of hanging the suite.

Every module that owns a lock creates it through :func:`make_lock`,
which returns a plain ``threading.Lock``/``RLock`` (zero overhead)
unless checking is enabled — via the ``REPRO_LOCKCHECK=1`` environment
variable (read at each ``make_lock`` call, so it must be set before the
owning object is constructed; the CI ``lockcheck`` job exports it for
the whole process) or programmatically via :func:`force`.

Inversions and hierarchy violations are *recorded*, not raised — the
run completes and the test session's teardown fixture (see
``tests/conftest.py``) asserts the report is empty and dumps it as JSON
(``REPRO_LOCKCHECK_REPORT=<path>``) for machine consumption.  Re-entry
raises because proceeding would deadlock the very test that found it.

Identity note: locks are compared **by name** for ordering (two
``WeightCache`` instances share the node ``"WeightCache._lock"``), and
by object identity for re-entry.  Nesting two *instances* of the same
class's lock is not reported as an inversion — no code path here does
that, and flagging it would false-positive sharded designs that order
instances by address.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import traceback
from typing import Optional, Union

__all__ = [
    "LOCK_HIERARCHY",
    "LockCheckError",
    "LockCheckRegistry",
    "SanitizedLock",
    "enabled",
    "force",
    "make_lock",
    "registry",
]

#: The canonical lock hierarchy — THE one place the repo's lock order is
#: declared.  Lower rank = acquired first (outermost).  A thread holding
#: a ranked lock may only acquire locks of strictly greater rank.  Locks
#: with no entry are unranked: ordering against them is checked only via
#: the observed-edge history.
#:
#: No lock nests inside another today: every lock is a leaf, so the
#: ranks only decide what a future nesting may do.  The static analyzer
#: cross-checks its inferred acquisition edges against these ranks and
#: R008-flags any violation.
LOCK_HIERARCHY: dict[str, int] = {
    "SearchService._lock": 5,
    "ShardedCheckpointStore._lock": 15,
    "ThreadPoolEvaluator._lock": 20,
    "SuperNet._lock": 30,
    "WeightCache._lock": 40,
    "AsyncCheckpointWriter._lock": 50,
}

_TRUTHY = frozenset({"1", "true", "yes", "on"})
#: programmatic override (conftest fixture / tests); list for mutability
_forced = [False]


def enabled() -> bool:
    """Whether locks built by :func:`make_lock` are sanitized."""
    if _forced[0]:
        return True
    return os.environ.get("REPRO_LOCKCHECK", "").strip().lower() in _TRUTHY


def force(on: bool) -> None:
    """Programmatically enable checking (for tests and fixtures) —
    affects locks created *after* the call."""
    _forced[0] = bool(on)


class LockCheckError(RuntimeError):
    """A lock acquisition that would deadlock (same-thread re-entry on a
    non-reentrant lock)."""


def _site(skip: int = 3) -> str:
    """``file:line`` of the acquisition site (outside this module)."""
    frame = sys._getframe(skip)
    while frame is not None and frame.f_code.co_filename == __file__:
        frame = frame.f_back
    if frame is None:
        return "<unknown>"
    return f"{frame.f_code.co_filename}:{frame.f_lineno}"


class LockCheckRegistry:
    """Process-wide acquisition history + violation log.

    Thread-safe via a plain (un-sanitized) meta-lock; the per-thread
    held stack lives in a ``threading.local`` so the hot path never
    contends on it.
    """

    def __init__(self):
        self._meta = threading.Lock()
        #: (outer name, inner name) -> first-seen site string
        self._edges: dict[tuple[str, str], str] = {}
        self._violations: list[dict] = []
        self._tls = threading.local()
        self.acquisitions = 0

    # -- per-thread held stack -----------------------------------------
    def _held(self) -> list:
        held = getattr(self._tls, "held", None)
        if held is None:
            held = self._tls.held = []
        return held

    def held_names(self) -> list[str]:
        """Names of the locks the *calling* thread currently holds."""
        return [lock.name for lock in self._held()]

    # -- the checks ----------------------------------------------------
    def before_acquire(self, lock: "SanitizedLock") -> None:
        held = self._held()
        if lock in held:
            if lock.reentrant:
                return                      # RLock re-entry is the point
            violation = {
                "kind": "reentry",
                "lock": lock.name,
                "thread": threading.current_thread().name,
                "site": _site(),
                "stack": "".join(traceback.format_stack(limit=12)),
            }
            with self._meta:
                self._violations.append(violation)
            raise LockCheckError(
                f"thread {threading.current_thread().name!r} re-acquired "
                f"non-reentrant lock {lock.name!r} it already holds "
                f"(at {violation['site']}) — this would deadlock")
        site = _site()
        for outer in held:
            if outer.name == lock.name:
                continue                    # instance-pair, see module doc
            edge = (outer.name, lock.name)
            inverse = (lock.name, outer.name)
            with self._meta:
                self._edges.setdefault(edge, site)
                inverse_site = self._edges.get(inverse)
                if inverse_site is not None:
                    self._violations.append({
                        "kind": "inversion",
                        "edge": list(edge),
                        "site": site,
                        "inverse_site": inverse_site,
                        "thread": threading.current_thread().name,
                        "stack": "".join(traceback.format_stack(limit=12)),
                    })
            if (lock.rank is not None and outer.rank is not None
                    and lock.rank <= outer.rank):
                with self._meta:
                    self._violations.append({
                        "kind": "hierarchy",
                        "edge": list(edge),
                        "ranks": [outer.rank, lock.rank],
                        "site": site,
                        "thread": threading.current_thread().name,
                    })

    def after_acquire(self, lock: "SanitizedLock") -> None:
        self._held().append(lock)
        self.acquisitions += 1              # benign counter, stats only

    def on_release(self, lock: "SanitizedLock") -> None:
        held = self._held()
        # remove the most recent entry (LIFO is the common case, but an
        # out-of-order release is legal for plain locks)
        for i in range(len(held) - 1, -1, -1):
            if held[i] is lock:
                del held[i]
                return

    # -- reporting -----------------------------------------------------
    def edges(self) -> dict[tuple[str, str], str]:
        with self._meta:
            return dict(self._edges)

    def violations(self) -> list[dict]:
        with self._meta:
            return list(self._violations)

    def report(self) -> dict:
        """Machine-readable summary of everything observed."""
        with self._meta:
            return {
                "acquisitions": self.acquisitions,
                "edges": [
                    {"outer": a, "inner": b, "site": site}
                    for (a, b), site in sorted(self._edges.items())
                ],
                "violations": list(self._violations),
                "hierarchy": dict(LOCK_HIERARCHY),
            }

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.report(), fh, indent=2, sort_keys=True)

    def reset(self) -> None:
        with self._meta:
            self._edges.clear()
            self._violations.clear()
            self.acquisitions = 0


#: The process-wide default registry ``make_lock`` wires locks into.
registry = LockCheckRegistry()


class SanitizedLock:
    """Instrumented (R)Lock: order/re-entry checks around every acquire.

    Supports the full ``threading.Lock`` surface used in this repo —
    ``acquire(blocking, timeout)``, ``release()``, context manager —
    so it is a drop-in replacement behind :func:`make_lock`.
    """

    def __init__(self, name: str, reentrant: bool = False,
                 reg: Optional[LockCheckRegistry] = None):
        self.name = name
        self.reentrant = reentrant
        self.rank = LOCK_HIERARCHY.get(name)
        self._registry = reg if reg is not None else registry
        self._inner = threading.RLock() if reentrant else threading.Lock()
        self._count = 0                 # successful acquires - releases

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._registry.before_acquire(self)
        ok = self._inner.acquire(blocking, timeout)
        if ok:
            self._count += 1            # under the lock: no write race
            self._registry.after_acquire(self)
        return ok

    def release(self) -> None:
        self._count -= 1                # still under the lock
        self._inner.release()
        self._registry.on_release(self)

    def locked(self) -> bool:
        # own counter, not the inner lock's probe: a same-thread
        # non-blocking acquire on a held RLock *succeeds*, so probing
        # would misreport a reentrant lock this thread holds as free
        return self._count > 0

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self):
        kind = "RLock" if self.reentrant else "Lock"
        return f"<SanitizedLock {self.name} ({kind}, rank={self.rank})>"


LockLike = Union[threading.Lock, threading.RLock, SanitizedLock]


def make_lock(name: str, reentrant: bool = False) -> LockLike:
    """The repo's lock factory.

    Returns a plain ``threading.Lock`` / ``threading.RLock`` (zero
    instrumentation overhead) unless lock checking is enabled, in which
    case a :class:`SanitizedLock` registered under ``name`` — the
    class-qualified name the static analyzer and :data:`LOCK_HIERARCHY`
    use, e.g. ``"WeightCache._lock"``.
    """
    if enabled():
        return SanitizedLock(name, reentrant=reentrant)
    return threading.RLock() if reentrant else threading.Lock()
