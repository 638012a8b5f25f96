"""Async write-behind checkpointing (VELOC-flavoured, §IX/§X).

:class:`AsyncCheckpointWriter` — saves are snapshotted and handed to
one process-wide writer thread so checkpoint I/O leaves the training
critical path.  It is a context manager; exiting flushes.

One writer thread for the whole process, not one per writer: every
new OS thread can take its own glibc malloc arena, so a thread per
writer would grow a long-lived service's memory with every session
that ever overlapped another.  The shared thread runs the saves
of every writer one at a time, in submission order (FIFO) — so waiting
for a writer's *last* submitted save waits for all of its saves, and a
hung ``store.save`` delays the other writers' saves too (DESIGN.md
"Checkpoint I/O pipeline").

Error contract (tested in ``tests/test_checkpoint.py``): background
write failures are captured, never lost.  The first captured exception
is re-raised by the next :meth:`AsyncCheckpointWriter.flush` (or
:meth:`close`) call, after this writer's saves have all been written;
captured errors are cleared once raised, so a later flush of healthy
writes succeeds.  Raising the first error does **not** discard the
rest: every captured failure (key + exception repr) stays in
:meth:`error_log`, which the scheduler's drain barrier surfaces as
``trace.io_stats["writer_errors"]`` — a run that lost three
checkpoints reports all three, not one.  Every counter is per writer.
Each :meth:`~AsyncCheckpointWriter.save` also returns that save's own
future, which resolves or raises for its key alone: the scheduler waits
on it for one provider, and books each failed save as its own fault.

Backpressure: each writer's queue is bounded.  ``save(..., block=True)``
(the default) blocks the caller once ``max_queue`` of its snapshots are
waiting for the writer thread — the producer cannot run unboundedly
ahead of the disk.  With ``block=False`` a full queue raises
:class:`queue.Full` immediately.
"""

from __future__ import annotations

import queue
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Optional

import numpy as np

from ..analysis.lockcheck import make_lock
from .store import CheckpointStore

#: Lock-discipline assertion (lint R004/R007): state shared between the
#: saving thread(s) and the writer thread.  Every write must hold
#: ``self._lock``; the whole-program analyzer verifies the set matches
#: what it infers.
_GUARDED_ATTRS = ("_errors", "_error_log", "_pending", "_closed", "_last")

#: The one writer thread every AsyncCheckpointWriter saves on; the
#: executor starts it on the first save and keeps it for the process.
_WRITER = ThreadPoolExecutor(max_workers=1,
                             thread_name_prefix="checkpoint-writer")


class AsyncCheckpointWriter:
    def __init__(self, store: CheckpointStore, max_queue: int = 64):
        self.store = store
        # snapshots handed over but not yet picked up by the writer thread
        self._queue: queue.Queue = queue.Queue(maxsize=max_queue)
        self._lock = make_lock("AsyncCheckpointWriter._lock")
        self._errors: list[Exception] = []
        self._error_log: list[tuple[str, str]] = []   # (key, repr) — kept
        self._pending: set[str] = set()
        self._closed = False
        self._last: Optional[Future] = None   # this writer's latest save

    def _write_next(self) -> None:
        """Writer-thread task: write this writer's oldest queued save.
        One task is submitted per queued snapshot, so there always is
        one."""
        key, weights, meta, done = self._queue.get_nowait()
        t0 = time.perf_counter()
        try:
            info = self.store.save(key, weights, meta)
        except Exception as exc:  # re-raised by the next flush/close
            with self._lock:
                self._errors.append(exc)
                self._error_log.append((key, repr(exc)))
                self._pending.discard(key)
            done.set_exception(exc)
            return
        seconds = time.perf_counter() - t0
        with self._lock:
            self._pending.discard(key)
        done.set_result((info, seconds))

    def save(self, key: str, weights: dict, meta: dict | None = None,
             block: bool = True, timeout: Optional[float] = None) -> Future:
        """Enqueue; snapshots the arrays so later in-place training updates
        don't race the writer.  Raises :class:`queue.Full` when the queue
        is at ``max_queue`` and ``block`` is false (or ``timeout`` runs
        out) — the backpressure contract.

        Returns this save's own future: it resolves to ``(CheckpointInfo,
        write seconds)`` once the checkpoint is on disk, or raises the
        write error — so a caller can wait for one key alone, without
        :meth:`flush` raising (and clearing) another key's error."""
        if self._closed:
            raise RuntimeError("writer is closed")
        snapshot = {name: np.array(arr, copy=True)
                    for name, arr in weights.items()}
        done: Future = Future()
        with self._lock:
            self._pending.add(key)
        try:
            self._queue.put((key, snapshot, meta, done), block=block,
                            timeout=timeout)
        except queue.Full:
            with self._lock:
                self._pending.discard(key)
            raise
        with self._lock:
            # submitted under the lock, so _last is always the newest
            self._last = _WRITER.submit(self._write_next)
        return done

    # -- accounting ------------------------------------------------------
    def pending_keys(self) -> set:
        with self._lock:
            return set(self._pending)

    def error_log(self) -> list[tuple[str, str]]:
        """Every write failure captured over the writer's lifetime as
        ``(key, exception_repr)`` — unlike the flush contract's
        raise-on-first-error, nothing is ever dropped from this log."""
        with self._lock:
            return list(self._error_log)

    def _wait(self) -> None:
        """Block until every save handed to this writer is written: the
        writer thread runs saves in FIFO order, so the last one done
        means all of them are."""
        with self._lock:
            last = self._last
        if last is not None:
            last.result()

    def flush(self) -> None:
        """Block until this writer's saves are written; raise the first
        captured write error (clearing it — but never :meth:`error_log`)
        — raise-on-first-error."""
        self._wait()
        with self._lock:
            errors, self._errors = self._errors, []
        if errors:
            raise errors[0]

    def close(self) -> None:
        """Flush and refuse further saves.  Idempotent: a second
        ``close()`` (service shutdown racing session teardown) does not
        raise again — but a *concurrent* second close still blocks until
        every save is written instead of returning mid-drain."""
        with self._lock:
            first = not self._closed
            self._closed = True
        if first:
            self.flush()
        else:
            self._wait()

    def __enter__(self) -> "AsyncCheckpointWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
