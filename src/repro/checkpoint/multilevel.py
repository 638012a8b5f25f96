"""Async write-behind checkpointing (VELOC-flavoured, §IX/§X).

:class:`AsyncCheckpointWriter` — a background thread drains a save
queue so checkpoint I/O leaves the training critical path.  It is a
context manager; exiting flushes and stops the worker.

Error contract (tested in ``tests/test_checkpoint.py``): background
write failures are captured, never lost.  The first captured exception
is re-raised by the next :meth:`AsyncCheckpointWriter.flush` (or
:meth:`close`) call, after the queue has fully drained; captured errors
are cleared once raised, so a later flush of healthy writes succeeds.
Raising the first error does **not** discard the rest: every captured
failure (key + exception repr) stays in :meth:`error_log`, which the
scheduler's drain barrier surfaces as ``trace.io_stats["writer_errors"]``
— a run that lost three checkpoints reports all three, not one.
``close`` always stops the worker thread, even when it re-raises.

Backpressure: the queue is bounded.  ``save(..., block=True)`` (the
default) blocks the caller once ``max_queue`` snapshots are waiting —
the producer cannot run unboundedly ahead of the disk.  With
``block=False`` a full queue raises :class:`queue.Full` immediately.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Optional

import numpy as np

from ..analysis.lockcheck import make_lock
from .store import CheckpointInfo, CheckpointStore

#: Lock-discipline assertion (lint R004/R007): state shared between the
#: saving thread(s) and the background drain worker.  Every write must
#: hold ``self._lock``; the whole-program analyzer verifies the set
#: matches what it infers.
_GUARDED_ATTRS = ("_results", "_durations", "_errors", "_error_log",
                  "_pending", "_closed")


class AsyncCheckpointWriter:
    def __init__(self, store: CheckpointStore, max_queue: int = 64):
        self.store = store
        self._queue: queue.Queue = queue.Queue(maxsize=max_queue)
        self._lock = make_lock("AsyncCheckpointWriter._lock")
        self._errors: list[Exception] = []
        self._error_log: list[tuple[str, str]] = []   # (key, repr) — kept
        self._results: dict[str, CheckpointInfo] = {}
        self._durations: dict[str, float] = {}
        self._pending: set[str] = set()
        self._closed = False
        self._worker = threading.Thread(target=self._drain, daemon=True)
        self._worker.start()

    def _drain(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                self._queue.task_done()
                return
            key, weights, meta = item
            t0 = time.perf_counter()
            try:
                info = self.store.save(key, weights, meta)
                with self._lock:
                    self._results[key] = info
                    self._durations[key] = time.perf_counter() - t0
            except Exception as exc:  # re-raised by the next flush/close
                with self._lock:
                    self._errors.append(exc)
                    self._error_log.append((key, repr(exc)))
            finally:
                with self._lock:
                    self._pending.discard(key)
                self._queue.task_done()

    def save(self, key: str, weights: dict, meta: dict | None = None,
             block: bool = True, timeout: Optional[float] = None) -> None:
        """Enqueue; snapshots the arrays so later in-place training updates
        don't race the writer.  Raises :class:`queue.Full` when the queue
        is at ``max_queue`` and ``block`` is false (or ``timeout`` runs
        out) — the backpressure contract."""
        if self._closed:
            raise RuntimeError("writer is closed")
        snapshot = {name: np.array(arr, copy=True)
                    for name, arr in weights.items()}
        with self._lock:
            self._pending.add(key)
        try:
            self._queue.put((key, snapshot, meta), block=block,
                            timeout=timeout)
        except queue.Full:
            with self._lock:
                self._pending.discard(key)
            raise

    # -- accounting (consumed by run_search's drain barrier) ------------
    def pending_keys(self) -> set:
        with self._lock:
            return set(self._pending)

    def results(self) -> dict[str, CheckpointInfo]:
        """CheckpointInfo per key written so far (snapshot copy)."""
        with self._lock:
            return dict(self._results)

    def durations(self) -> dict[str, float]:
        """Background write seconds per key (snapshot copy) — the
        ``io_hidden`` cost the critical path never saw."""
        with self._lock:
            return dict(self._durations)

    def error_log(self) -> list[tuple[str, str]]:
        """Every write failure captured over the writer's lifetime as
        ``(key, exception_repr)`` — unlike the flush contract's
        raise-on-first-error, nothing is ever dropped from this log."""
        with self._lock:
            return list(self._error_log)

    def flush(self) -> None:
        """Block until the queue drains; raise the first captured write
        error (clearing the pending set — but never :meth:`error_log`)
        — raise-on-first-error."""
        self._queue.join()
        with self._lock:
            errors, self._errors = self._errors, []
        if errors:
            raise errors[0]

    def close(self) -> None:
        """Flush then stop the worker.  The worker is always stopped,
        even when flush re-raises a captured write error.  Idempotent:
        a second ``close()`` (service shutdown racing session teardown)
        is a no-op — and a *concurrent* second close blocks until the
        worker has actually stopped instead of returning mid-drain."""
        with self._lock:
            first = not self._closed
            self._closed = True
        if not first:
            self._worker.join()
            return
        try:
            self.flush()
        finally:
            self._queue.put(None)
            self._worker.join()

    def __enter__(self) -> "AsyncCheckpointWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
