"""Fault-tolerant execution layer for cluster-scale NAS (DESIGN.md
"Fault tolerance").

At the paper's scale (32 A100s, multi-day campaigns) worker crashes
and corrupt checkpoints are the norm, not the exception.
This module gives the scheduler everything it needs to survive them:

- a **typed fault taxonomy** (:class:`TaskError`,
  :class:`InjectedFault`, plus :class:`CorruptCheckpointError` from the
  checkpoint store) so failures are classified, counted and retried by
  kind instead of crashing the ask→submit→tell loop;
- :class:`TaskFailure` — the value an evaluator hands back in place of a
  result when its task raised; the scheduler turns it into a failed
  :class:`TraceRecord` (``FAILURE_SCORE`` path) or a retry;
- :class:`RetryPolicy` — bounded retry with exponential backoff and
  seeded jitter;
- :class:`FaultStats` — the per-run fault counters that serialize into
  ``trace.fault_stats`` and round-trip through the trace jsonl;
- :class:`TraceJournal` — an append-only jsonl journal of completed
  records, flushed as each record lands, so a killed run resumes from
  its last durable candidate (``run_search(resume=path)``);
- :class:`ChaosEvaluator` — a seeded fault-injection wrapper over any
  evaluator (a crash probability) for measuring search behaviour under
  controlled failure rates.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from pathlib import Path
from typing import Optional

import numpy as np

from ..checkpoint.store import CorruptCheckpointError
from .trace import Trace, TraceRecord

__all__ = [
    "TaskError", "InjectedFault",
    "CorruptCheckpointError", "WaitTimeout", "TaskFailure",
    "classify_failure", "RetryPolicy", "FaultStats", "TraceJournal",
    "ChaosEvaluator",
]


# ---------------------------------------------------------------------------
# fault taxonomy
# ---------------------------------------------------------------------------

class TaskError(Exception):
    """A candidate-evaluation task raised — the generic contained fault."""


class InjectedFault(TaskError):
    """A fault deliberately injected by :class:`ChaosEvaluator`."""


class WaitTimeout(Exception):
    """``wait_any(timeout=...)`` ran out of time with no completion.

    Control-flow signal: the scheduler bounds a wait by its earliest
    backing-off retry and dispatches the retry once this is raised.
    Not a task fault itself, so deliberately outside the
    :class:`TaskError` tree.
    """


#: kind labels used in FaultStats counters, keyed by taxonomy class
_KIND_LABELS = (
    (InjectedFault, "injected"),
    (CorruptCheckpointError, "corrupt_checkpoint"),
)


def classify_failure(error: BaseException) -> str:
    """Taxonomy label for a contained task exception."""
    for cls, label in _KIND_LABELS:
        if isinstance(error, cls):
            return label
    return "task_error"


class TaskFailure:
    """What an evaluator returns instead of a result when its task
    raised.  Carries the original exception and its taxonomy kind so the
    scheduler can book the fault and decide whether to retry."""

    __slots__ = ("error", "kind")

    def __init__(self, error: BaseException, kind: Optional[str] = None):
        self.error = error
        self.kind = kind or classify_failure(error)

    def __repr__(self):
        return f"<TaskFailure {self.kind}: {self.error!r}>"


# ---------------------------------------------------------------------------
# retry policy
# ---------------------------------------------------------------------------

class RetryPolicy:
    """Bounded retry with exponential backoff and seeded jitter.

    ``max_attempts`` counts the first attempt: ``RetryPolicy(1)`` never
    retries (containment only), ``RetryPolicy(3)`` allows two retries.
    The backoff before retry *k* (1-based) is
    ``base_delay * 2**(k-1) + U(0, jitter)`` seconds, capped at
    ``max_delay``; jitter draws come from the scheduler's seeded rng so
    retry schedules are reproducible.
    """

    def __init__(self, max_attempts: int = 3, base_delay: float = 0.05,
                 jitter: float = 0.02, max_delay: float = 5.0):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if base_delay < 0 or jitter < 0 or max_delay < 0:
            raise ValueError("delays must be non-negative")
        self.max_attempts = int(max_attempts)
        self.base_delay = float(base_delay)
        self.jitter = float(jitter)
        self.max_delay = float(max_delay)

    def should_retry(self, attempt: int) -> bool:
        """True when attempt number ``attempt`` (1-based) may be retried."""
        return attempt < self.max_attempts

    def delay(self, attempt: int, rng=None) -> float:
        """Backoff seconds before the retry that follows ``attempt``."""
        backoff = self.base_delay * (2.0 ** (attempt - 1))
        if self.jitter and rng is not None:
            backoff += float(rng.uniform(0.0, self.jitter))
        return min(backoff, self.max_delay)


# ---------------------------------------------------------------------------
# fault accounting
# ---------------------------------------------------------------------------

class FaultStats:
    """Per-run fault counters; serializes into ``trace.fault_stats``.

    ``by_kind`` counts every contained fault by taxonomy label;
    ``retries`` counts resubmissions; ``failed_records`` counts
    candidates that exhausted their retry budget and landed as failed
    trace records; ``quarantined`` counts corrupt checkpoints moved to
    the store's ``.quarantine/`` sidecar directory.
    """

    def __init__(self):
        self.by_kind: dict[str, int] = {}
        self.retries = 0
        self.failed_records = 0
        self.quarantined = 0
        self.backoff_seconds = 0.0

    def record_fault(self, kind: str) -> None:
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1

    @property
    def total_faults(self) -> int:
        return sum(self.by_kind.values())

    def as_dict(self) -> dict:
        return {
            "by_kind": dict(self.by_kind),
            "total_faults": self.total_faults,
            "retries": self.retries,
            "failed_records": self.failed_records,
            "quarantined": self.quarantined,
            "backoff_seconds": self.backoff_seconds,
        }


# ---------------------------------------------------------------------------
# resumable trace journal
# ---------------------------------------------------------------------------

class TraceJournal:
    """Append-only jsonl journal of completed trace records.

    Line 1 is a header (name / scheme, same shape as the trace jsonl);
    every subsequent line is one completed :class:`TraceRecord` in
    completion order, flushed + fsynced as it lands so a killed run
    loses at most the in-flight candidates.  ``replay`` reads a journal
    back into ``(header, records)`` so ``run_search(resume=path)`` can
    restore strategy state and continue from the last durable candidate.
    Truncated final lines (the crash case) are skipped, not fatal.

    The file is opened at the first append or at :meth:`close`, header
    included, so a journal nobody drives or closes (a service session
    admitted but never driven) holds no open file, and a closed journal
    always holds at least its header.  A fresh journal
    (``append=False``) removes any old file at the path up front, so a
    resume never replays a previous run's records.
    """

    def __init__(self, path, *, name: str = "trace",
                 scheme: str = "baseline", append: bool = False):
        self.path = Path(path)
        if not append:
            self.path.unlink(missing_ok=True)
        self._header = {"name": name, "scheme": scheme, "journal": True}
        self._fh = None
        self._closed = False

    def _open(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a")
        if self._fh.tell() == 0:
            self._write(self._header)

    def _write(self, obj: dict) -> None:
        if self._closed:
            raise ValueError(f"journal {self.path} is closed")
        if self._fh is None:
            self._open()
        self._fh.write(json.dumps(obj) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def append(self, record: TraceRecord) -> None:
        """Durably append one completed record."""
        self._write(asdict(record))

    def close(self) -> None:
        if not self._closed:
            if self._fh is None:
                self._open()
            self._closed = True
            self._fh.close()

    def __enter__(self) -> "TraceJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- replay ---------------------------------------------------------
    @staticmethod
    def replay(path) -> tuple[dict, list[TraceRecord]]:
        """Read a journal back; returns ``(header, records)``.  A
        torn/truncated trailing line — the artifact of a mid-write kill —
        is dropped silently; anything else malformed raises."""
        path = Path(path)
        records: list[TraceRecord] = []
        with open(path) as fh:
            lines = fh.read().splitlines()
        if not lines:
            return {}, records
        header = json.loads(lines[0])
        for i, line in enumerate(lines[1:], start=1):
            if not line.strip():
                continue
            try:
                d = json.loads(line)
            except json.JSONDecodeError:
                if i == len(lines) - 1:
                    break                  # torn final line: crash artifact
                raise
            d["arch_seq"] = tuple(d["arch_seq"])
            records.append(TraceRecord(**d))
        return header, records

    @staticmethod
    def to_trace(path) -> Trace:
        """Load a journal as a :class:`Trace` (e.g. for analysis of a
        run that never reached its drain barrier)."""
        header, records = TraceJournal.replay(path)
        trace = Trace(name=header.get("name", "trace"),
                      scheme=header.get("scheme", "baseline"))
        for r in records:
            trace.append(r)
        return trace


# ---------------------------------------------------------------------------
# chaos fault injection
# ---------------------------------------------------------------------------

def _crash():
    raise InjectedFault("chaos: injected worker crash")


class ChaosEvaluator:
    """Seeded fault-injection wrapper over any evaluator.

    Each submitted task independently crashes with probability
    ``crash_prob``, drawn from the wrapper's own rng: the evaluator runs
    a task that raises :class:`InjectedFault` in its place.  Retried
    tasks re-draw, so with ``crash_prob=p`` and ``max_attempts=a`` a
    candidate is lost with probability ``p**a``.  Because the draw
    happens at submit time on the (serial) scheduler thread, a seeded
    chaos schedule is reproducible run-to-run.

    A non-finite score, which a flaky node would return, is not injected
    here: the scheduler's result validation contains it as a
    ``corrupt_result`` fault whatever produced it.
    """

    def __init__(self, evaluator, *, crash_prob: float = 0.0,
                 seed: int = 0):
        if not 0.0 <= crash_prob <= 1.0:
            raise ValueError(f"crash_prob must be in [0, 1], "
                             f"got {crash_prob}")
        self.evaluator = evaluator
        self.crash_prob = float(crash_prob)
        self.rng = np.random.default_rng(seed)
        self.injected: dict[str, int] = {"crash": 0}
        self.submitted = 0

    def submit(self, task) -> int:
        self.submitted += 1
        if float(self.rng.uniform()) < self.crash_prob:
            self.injected["crash"] += 1
            task = _crash
        return self.evaluator.submit(task)

    # -- delegation -----------------------------------------------------
    def wait_any(self, timeout: Optional[float] = None):
        return self.evaluator.wait_any(timeout=timeout)

    @property
    def num_workers(self) -> int:
        return self.evaluator.num_workers

    @property
    def clock(self):
        return self.evaluator.clock

    @property
    def in_flight(self) -> int:
        return self.evaluator.in_flight

    def stats(self) -> dict:
        return {
            "submitted": self.submitted,
            "injected": dict(self.injected),
            "crash_prob": self.crash_prob,
        }
