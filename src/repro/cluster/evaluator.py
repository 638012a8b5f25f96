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
retry instead of crashing the search.  ``wait_any(timeout=...)``
raises :class:`WaitTimeout` when nothing completes in time, so a wait
ends when a backing-off retry falls due.

Every submitted task comes back from ``wait_any`` exactly once, and
``in_flight`` counts those that have not yet.  An evaluator never
disowns a ticket: a multiplexer whose tenant has gone drops that
tenant's completions itself (``SearchService._wait_once``).

Clock seam (DESIGN.md "One clock"): every evaluator carries a
``clock``, and the scheduler and the service read every time they use
through it — record stamps, checkpoint I/O seconds, retry due times
and waits.  Real evaluators share :data:`MONOTONIC`, the process's
monotonic clock; :class:`repro.cluster.SimulatedCluster` is its own
clock and reads virtual time.
"""

from __future__ import annotations

import concurrent.futures as cf
import queue
import time
from collections import deque
from typing import Callable, Optional

from ..analysis.lockcheck import make_lock
from .resilience import TaskFailure, WaitTimeout


class MonotonicClock:
    """Time as real workers see it: the monotonic clock, real sleeps,
    and checkpoint I/O costing what it measured."""

    def now(self) -> float:
        return time.perf_counter()

    #: when the candidate about to be proposed starts: at its ask
    next_start = now

    def sleep(self, seconds: float) -> None:
        time.sleep(seconds)

    def io_seconds(self, measured: float, nbytes: Optional[int] = None,
                   write: bool = False) -> float:
        """Seconds to book for a checkpoint read (or ``write``) that
        took ``measured`` seconds and moved ``nbytes`` (None: nothing,
        or a cost booked elsewhere)."""
        return measured


#: the clock every real evaluator reads
MONOTONIC = MonotonicClock()


class SerialEvaluator:
    """Run each task inline on submit; wait_any pops completed results.

    A raising task is contained at submit time: the ticket sequence
    stays intact and ``wait_any`` hands back a :class:`TaskFailure` for
    it, exactly like the thread pool does."""

    num_workers = 1
    clock = MONOTONIC

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

    clock = MONOTONIC

    def __init__(self, num_workers: int = 4):
        self.num_workers = num_workers
        self._pool = cf.ThreadPoolExecutor(max_workers=num_workers)
        self._futures: dict[cf.Future, int] = {}
        self._done: queue.SimpleQueue[cf.Future] = queue.SimpleQueue()
        self._next = 0
        # several scheduler threads may submit/drain concurrently
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
        # the emptiness check must also hold the lock: an unlocked read
        # races concurrent drains — two waiters could both observe a
        # single outstanding future and the loser would block forever on
        # an empty done-queue instead of raising
        with self._lock:
            if not self._futures:
                raise RuntimeError("no pending tasks")
        try:
            fut = self._done.get(timeout=timeout)
        except queue.Empty:
            raise WaitTimeout(f"no completion within {timeout}s")
        with self._lock:
            ticket = self._futures.pop(fut)
        try:
            return ticket, fut.result()
        except Exception as exc:
            return ticket, TaskFailure(exc)

    @property
    def in_flight(self) -> int:
        return len(self._futures)

    def close(self) -> None:
        self._pool.shutdown(wait=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
