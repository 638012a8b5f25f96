"""Evaluators: where candidate training actually executes (Fig. 6 (4)).

:class:`SerialEvaluator` and :class:`ThreadPoolEvaluator` expose the
same tiny interface — ``submit(task) -> ticket`` and
``wait_any(timeout=None) -> (ticket, result)`` — so the scheduler code
is identical over serial and thread-pool execution.  ``task`` is any
zero-argument callable.

Failure containment (DESIGN.md "Fault tolerance"): a raising task never
escapes ``wait_any`` as an exception.  Its ticket comes back paired with
a :class:`repro.cluster.resilience.TaskFailure` carrying the original
error and its taxonomy kind, so the scheduler books a failed record or a
retry instead of crashing the search.  Two more resilience hooks:

- ``wait_any(timeout=...)`` raises :class:`WaitTimeout` when nothing
  completes in time, so a wait ends when a backing-off retry falls due;
- ``abandon(ticket)`` disowns an in-flight task (a failed service
  session's teardown); its eventual completion is silently discarded.
"""

from __future__ import annotations

import concurrent.futures as cf
import queue
from collections import deque
from typing import Callable, Optional

from ..analysis.lockcheck import make_lock
from .resilience import TaskFailure, WaitTimeout

#: Lock-discipline assertion (lint R004/R007): shared mutable state that
#: both the submitting thread and any thread calling ``wait_any`` touch.
#: Every write must happen under ``self._lock``; lint checks the set
#: equals the attributes whose writes outside ``__init__`` all hold it.
_GUARDED_ATTRS = ("_futures", "_next")


class SerialEvaluator:
    """Run each task inline on submit; wait_any pops completed results.

    A raising task is contained at submit time: the ticket sequence
    stays intact and ``wait_any`` hands back a :class:`TaskFailure` for
    it, exactly like the thread pool does."""

    num_workers = 1

    def __init__(self):
        self._done: deque[tuple[int, object]] = deque()
        self._next = 0

    def submit(self, task: Callable[[], object]) -> int:
        ticket = self._next
        self._next += 1
        try:
            outcome: object = task()
        except Exception as exc:          # contained, not raised
            outcome = TaskFailure(exc)
        self._done.append((ticket, outcome))
        return ticket

    def wait_any(self, timeout: Optional[float] = None):
        # timeout accepted for interface parity; results are already done
        if not self._done:
            raise RuntimeError("no pending tasks")
        return self._done.popleft()   # FIFO, O(1) (list.pop(0) was O(n))

    def abandon(self, ticket: int) -> None:
        """Drop a completed-but-unclaimed ticket (interface parity)."""
        self._done = deque((t, r) for t, r in self._done if t != ticket)

    @property
    def in_flight(self) -> int:
        return len(self._done)

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class ThreadPoolEvaluator:
    """Completions flow through a done-callback into a queue, so
    ``wait_any`` is a single O(1) blocking get — the old implementation
    re-scanned every outstanding future with ``cf.wait`` on each call,
    O(n) per wait and O(n^2) over a run."""

    def __init__(self, num_workers: int = 4):
        self.num_workers = num_workers
        self._pool = cf.ThreadPoolExecutor(max_workers=num_workers)
        self._futures: dict[cf.Future, int] = {}
        self._done: queue.SimpleQueue[cf.Future] = queue.SimpleQueue()
        self._next = 0
        # guards _futures and the ticket counter: several scheduler
        # threads may submit/drain the same evaluator concurrently
        # (see _GUARDED_ATTRS / lint R004, R007)
        self._lock = make_lock("ThreadPoolEvaluator._lock")

    def submit(self, task: Callable[[], object]) -> int:
        # ticket allocation, pool dispatch and registration are one
        # atomic step: an unlocked `self._next += 1` hands two
        # concurrent submitters the same ticket.  Registering before
        # wiring the callback keeps the instant-finish case visible to
        # wait_any.
        with self._lock:
            ticket = self._next
            self._next += 1
            fut = self._pool.submit(task)
            self._futures[fut] = ticket
        fut.add_done_callback(self._done.put)
        return ticket

    def wait_any(self, timeout: Optional[float] = None):
        """Next ``(ticket, result)``; a raising task yields a
        :class:`TaskFailure` result instead of raising here.  With a
        ``timeout``, raises :class:`WaitTimeout` when nothing completes
        in time (the caller dispatches its due retries and waits again)."""
        while True:
            # the emptiness check must also hold the lock: an unlocked
            # read races concurrent drains — two waiters could both
            # observe a single outstanding future and the loser would
            # block forever on an empty done-queue instead of raising
            with self._lock:
                if not self._futures:
                    raise RuntimeError("no pending tasks")
            try:
                fut = self._done.get(timeout=timeout)
            except queue.Empty:
                raise WaitTimeout(f"no completion within {timeout}s")
            with self._lock:
                ticket = self._futures.pop(fut, None)
            if ticket is None:
                continue                  # abandoned ticket: discard
            try:
                return ticket, fut.result()
            except cf.CancelledError as exc:   # BaseException since 3.8
                return ticket, TaskFailure(exc)
            except Exception as exc:
                return ticket, TaskFailure(exc)

    def abandon(self, ticket: int) -> None:
        """Disown an in-flight task (its session has ended).  Queued
        tasks are cancelled; a running task cannot be preempted, but its
        eventual completion is discarded by ``wait_any``."""
        with self._lock:
            fut = next((f for f, t in self._futures.items()
                        if t == ticket), None)
            if fut is not None:
                del self._futures[fut]
        if fut is not None:
            fut.cancel()

    @property
    def in_flight(self) -> int:
        return len(self._futures)

    def close(self) -> None:
        self._pool.shutdown(wait=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
