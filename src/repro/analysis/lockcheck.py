"""Runtime lock sanitizer: instrumented locks that enforce *every lock
is a leaf*.

The linter's R008 (:mod:`repro.analysis.lint`) checks one module at a
time, so it cannot see a nesting across modules (a service calling its
evaluator, store or driver while holding its own lock) or one that
only materializes at runtime (a callback, a test wiring two components
the source never composes).  :class:`SanitizedLock` is the one check
for those: a drop-in replacement for ``threading.Lock`` that keeps,
per thread, the stack of sanitized locks currently held and raises
:class:`LockCheckError` on any acquire made while that stack is
non-empty, re-entering the same lock included.  With no nesting there
is no lock order, so no lock-order deadlock.

Nesting is checked by object identity, not by name: two instances of
one class (two ``WeightCache`` locks) nest as surely as two classes do.

Every module that owns a lock creates it through :func:`make_lock`,
which returns a plain ``threading.Lock`` (zero overhead)
unless checking is enabled — via the ``REPRO_LOCKCHECK=1`` environment
variable (read at each ``make_lock`` call, so it must be set before the
owning object is constructed; the CI ``lockcheck`` job exports it for
the whole test run) or programmatically via :func:`force`.

A violation raises at the acquire, before the thread blocks, and is
also recorded: code that contains worker exceptions (a task failure
booked as a record) would otherwise hide it.  The test session's
teardown fixture (see ``tests/conftest.py``) asserts the record is
empty and dumps it as JSON to ``lockcheck_report.json``.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import traceback
from typing import Optional, Union

__all__ = [
    "LockCheckError",
    "LockCheckRegistry",
    "SanitizedLock",
    "enabled",
    "force",
    "make_lock",
    "registry",
]

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
    """A lock acquired while the thread holds another sanitized lock, or
    re-acquired by the thread that holds it."""


def _site(skip: int = 3) -> str:
    """``file:line`` of the acquisition site (outside this module)."""
    frame = sys._getframe(skip)
    while frame is not None and frame.f_code.co_filename == __file__:
        frame = frame.f_back
    if frame is None:
        return "<unknown>"
    return f"{frame.f_code.co_filename}:{frame.f_lineno}"


class LockCheckRegistry:
    """Process-wide violation log.

    Thread-safe via a plain (un-sanitized) meta-lock; the per-thread
    held stack lives in a ``threading.local`` so the hot path never
    contends on it.
    """

    def __init__(self):
        self._meta = threading.Lock()
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

    # -- the check -----------------------------------------------------
    def before_acquire(self, lock: "SanitizedLock") -> None:
        held = self._held()
        if not held:
            return                          # a leaf
        thread = threading.current_thread().name
        site = _site()
        if lock in held:
            kind = "reentry"
            message = (f"re-acquired lock {lock.name!r} it already holds "
                       f"(at {site}) — this would deadlock")
        else:
            kind = "nested"
            message = (f"acquired {lock.name!r} while holding "
                       f"{[h.name for h in held]} (at {site}) — every "
                       f"lock must be a leaf")
        with self._meta:
            self._violations.append({
                "kind": kind,
                "lock": lock.name,
                "held": [h.name for h in held],
                "thread": thread,
                "site": site,
                "stack": "".join(traceback.format_stack(limit=12)),
            })
        raise LockCheckError(f"thread {thread!r} {message}")

    def after_acquire(self, lock: "SanitizedLock") -> None:
        self._held().append(lock)
        with self._meta:
            self.acquisitions += 1

    def on_release(self, lock: "SanitizedLock") -> None:
        held = self._held()
        if lock in held:                    # not when another thread took it
            held.remove(lock)

    # -- reporting -----------------------------------------------------
    def violations(self) -> list[dict]:
        with self._meta:
            return list(self._violations)

    def report(self) -> dict:
        """Machine-readable summary of everything observed."""
        with self._meta:
            return {
                "acquisitions": self.acquisitions,
                "violations": list(self._violations),
            }

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.report(), fh, indent=2, sort_keys=True)

    def reset(self) -> None:
        with self._meta:
            self._violations.clear()
            self.acquisitions = 0


#: The process-wide default registry ``make_lock`` wires locks into.
registry = LockCheckRegistry()


class SanitizedLock:
    """Instrumented ``threading.Lock``: the leaf check around every
    acquire.

    Supports the full ``threading.Lock`` surface used in this repo —
    ``acquire(blocking, timeout)``, ``release()``, ``locked()``, context
    manager — so it is a drop-in replacement behind :func:`make_lock`.
    """

    def __init__(self, name: str, reg: Optional[LockCheckRegistry] = None):
        self.name = name
        self._registry = reg if reg is not None else registry
        self._inner = threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._registry.before_acquire(self)
        ok = self._inner.acquire(blocking, timeout)
        if ok:
            self._registry.after_acquire(self)
        return ok

    def release(self) -> None:
        self._inner.release()
        self._registry.on_release(self)

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()


LockLike = Union[threading.Lock, SanitizedLock]


def make_lock(name: str) -> LockLike:
    """The repo's lock factory.

    Returns a plain ``threading.Lock`` (zero instrumentation overhead)
    unless lock checking is enabled, in which case a
    :class:`SanitizedLock` that raises on any acquire nested inside
    another.  ``name`` is the class-qualified name the linter's R008
    uses, e.g. ``"WeightCache._lock"``; it labels violations.
    """
    if enabled():
        return SanitizedLock(name)
    return threading.Lock()
