"""Async write-behind checkpointing (VELOC-flavoured, §IX/§X).

:class:`AsyncCheckpointWriter` — saves are snapshotted and handed to
one process-wide writer thread so checkpoint I/O leaves the training
critical path.  It is a context manager; exiting closes it.

One writer thread for the whole process, not one per writer: every
new OS thread can take its own glibc malloc arena, so a thread per
writer would grow a long-lived service's memory with every session
that ever overlapped another.  The shared thread runs the saves
of every writer one at a time, in submission order (FIFO) — so waiting
for a writer's *last* submitted save waits for all of its saves, and a
hung ``store.save`` delays the other writers' saves too (DESIGN.md
"Checkpoint I/O pipeline").

Errors: each :meth:`~AsyncCheckpointWriter.save` returns the writer
thread's future for that save, which resolves to ``(CheckpointInfo,
write seconds)`` or raises that key's write error.  It is the only
error channel: :meth:`~AsyncCheckpointWriter.flush` and
:meth:`~AsyncCheckpointWriter.close` wait and never raise.  The
scheduler books each failed save from its future.

Backpressure: at most ``max_queue`` of a writer's saves are unwritten
at a time; the next :meth:`~AsyncCheckpointWriter.save` blocks until
the writer thread has written one, so the producer cannot run
unboundedly ahead of the disk.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor, wait
from typing import Optional

import numpy as np

from ..analysis.lockcheck import make_lock
from .store import CheckpointStore

#: Lock-discipline assertion (lint R004/R007): state shared between the
#: threads that save, flush and close.  Every write must hold
#: ``self._lock``; lint checks the set equals the attributes whose
#: writes outside ``__init__`` all hold it.
_GUARDED_ATTRS = ("_closed", "_last")

#: The one writer thread every AsyncCheckpointWriter saves on; the
#: executor starts it on the first save and keeps it for the process.
_WRITER = ThreadPoolExecutor(max_workers=1,
                             thread_name_prefix="checkpoint-writer")


class AsyncCheckpointWriter:
    def __init__(self, store: CheckpointStore, max_queue: int = 64):
        self.store = store
        # one slot per unwritten save; the writer thread frees it
        self._slots = threading.Semaphore(max_queue)
        self._lock = make_lock("AsyncCheckpointWriter._lock")
        self._closed = False
        self._last: Optional[Future] = None   # this writer's latest save

    def _write(self, key: str, weights: dict, meta: dict | None):
        """Writer-thread task: one save, timed."""
        try:
            t0 = time.perf_counter()
            info = self.store.save(key, weights, meta)
            return info, time.perf_counter() - t0
        finally:
            self._slots.release()

    def save(self, key: str, weights: dict,
             meta: dict | None = None) -> Future:
        """Snapshot the arrays (so later in-place training updates don't
        race the writer) and queue the save; blocks while ``max_queue``
        of this writer's saves are unwritten.  Raises ``RuntimeError``
        once the writer is closed.

        Returns this save's future: it resolves to ``(CheckpointInfo,
        write seconds)`` once the checkpoint is on disk, or raises the
        write error."""
        snapshot = {name: np.array(arr, copy=True)
                    for name, arr in weights.items()}
        self._slots.acquire()
        with self._lock:
            # checked with the submit in one hold, so a close() that
            # returned has flushed every save it did not refuse
            if self._closed:
                self._slots.release()
                raise RuntimeError("writer is closed")
            self._last = _WRITER.submit(self._write, key, snapshot, meta)
            return self._last

    def flush(self) -> None:
        """Block until every save handed to this writer is written or
        failed: the writer thread runs saves in FIFO order, so the last
        one done means all of them are."""
        with self._lock:
            last = self._last
        if last is not None:
            wait((last,))

    def close(self) -> None:
        """Refuse further saves, then flush.  Idempotent, and every
        concurrent ``close()`` returns only once all saves are done."""
        with self._lock:
            self._closed = True
        self.flush()

    def __enter__(self) -> "AsyncCheckpointWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
