"""NAS trace records — the substrate Figures 2/4/5/7 are computed from.

A :class:`Trace` is the ordered list of candidate evaluations of one NAS
run: architecture sequence, score, wall/virtual timestamps, provider and
checkpoint-overhead accounting.  Traces serialise to JSONL so experiment
harnesses can cache and share runs (the paper's Figs 7/8/9 and Tables
III/IV all consume the same runs).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator, Optional


def checkpoint_key(candidate_id: int) -> str:
    """Store key for a candidate's partial-training checkpoint."""
    return f"cand_{candidate_id:06d}"


@dataclass
class TraceRecord:
    candidate_id: int
    arch_seq: tuple
    score: float
    ok: bool = True
    scheme: str = "baseline"
    parent_id: Optional[int] = None
    provider_id: Optional[int] = None
    start_time: float = 0.0
    end_time: float = 0.0
    #: total checkpoint I/O seconds attributed to this candidate —
    #: always ``io_blocked + io_hidden`` (the simulator's synchronous
    #: runs have ``io_hidden == 0``, so there ``overhead`` keeps its
    #: historical meaning)
    overhead: float = 0.0
    #: I/O seconds that blocked the scheduler's ask→submit→tell loop
    io_blocked: float = 0.0
    #: I/O seconds spent off the critical path (write-behind saves) but
    #: still attributable to this candidate
    io_hidden: float = 0.0
    #: provider weights came from the in-memory WeightCache, not disk
    cache_hit: bool = False
    num_params: int = 0
    transferred: bool = False
    transfer_coverage: float = 0.0
    ckpt_bytes: int = 0
    #: evaluation attempts consumed (1 = clean first try; >1 = the
    #: fault-containment path retried a crashed or corrupt evaluation)
    attempts: int = 1
    #: taxonomy kind + message of the final fault for failed records
    #: (``None`` for clean evaluations)
    error: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    def add_io_blocked(self, seconds: float) -> None:
        """Book I/O seconds that stalled the scheduler critical path
        (``overhead`` tracks the blocked+hidden total automatically)."""
        self.io_blocked += seconds
        self.overhead += seconds

    def add_io_hidden(self, seconds: float) -> None:
        """Book I/O seconds absorbed off the critical path
        (write-behind saves)."""
        self.io_hidden += seconds
        self.overhead += seconds


@dataclass
class Trace:
    name: str = "trace"
    scheme: str = "baseline"
    records: list = field(default_factory=list)
    #: a kept name, always None: it held the retired pre-flight gate's
    #: accounting, and the benchmark still reads it (ROADMAP.md item 1
    #: step 1).  Old trace headers that carry it still load.
    static_stats: Optional[dict] = None
    #: checkpoint I/O accounting (``drain_seconds`` of the write-behind
    #: drain barrier, ``writer_errors`` naming failed saves, ``cache``:
    #: the provider cache's stats) for every transferring search,
    #: each of which is store-backed; None for baseline runs
    io_stats: Optional[dict] = None
    #: fault-containment accounting (``by_kind``, ``total_faults``,
    #: ``retries``, ``failed_records``, ``quarantined``,
    #: ``backoff_seconds``; plus ``chaos`` injection stats under a
    #: chaos evaluator and ``resumed_records`` after a resume)
    #: when any fault was contained or injected or the run resumed;
    #: None otherwise
    fault_stats: Optional[dict] = None
    #: transfer accounting (``copied_bytes``: what selective transfer
    #: copied into candidates) when the search transferred weights;
    #: None for baseline runs
    transfer_stats: Optional[dict] = None

    def append(self, record: TraceRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def ok_records(self) -> list[TraceRecord]:
        """Completed evaluations, in completion order."""
        return [r for r in self.records if r.ok]

    def best(self, k: int = 1) -> list[TraceRecord]:
        """Top-``k`` successful candidates by score (descending)."""
        return sorted(self.ok_records(), key=lambda r: r.score,
                      reverse=True)[:k]

    @property
    def makespan(self) -> float:
        """Start of the run to the last completion (virtual or wall)."""
        if not self.records:
            return 0.0
        return max(r.end_time for r in self.records)

    @property
    def total_overhead(self) -> float:
        return float(sum(r.overhead for r in self.records))

    @property
    def total_io_blocked(self) -> float:
        """Checkpoint I/O seconds that actually blocked the scheduler."""
        return float(sum(r.io_blocked for r in self.records))

    @property
    def total_io_hidden(self) -> float:
        """Checkpoint I/O seconds hidden behind training by the
        write-behind writer."""
        return float(sum(r.io_hidden for r in self.records))

    @property
    def busy_time(self) -> float:
        return float(sum(r.duration for r in self.records))

    # ------------------------------------------------------------------
    # caching
    # ------------------------------------------------------------------
    def save_jsonl(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            header = {"name": self.name, "scheme": self.scheme}
            if self.io_stats is not None:
                header["io_stats"] = self.io_stats
            if self.fault_stats is not None:
                header["fault_stats"] = self.fault_stats
            if self.transfer_stats is not None:
                header["transfer_stats"] = self.transfer_stats
            fh.write(json.dumps(header) + "\n")
            for r in self.records:
                fh.write(json.dumps(asdict(r)) + "\n")
        return path

    @classmethod
    def load_jsonl(cls, path) -> "Trace":
        with open(path) as fh:
            header = json.loads(fh.readline())
            trace = cls(name=header["name"], scheme=header["scheme"],
                        static_stats=header.get("static_stats"),
                        io_stats=header.get("io_stats"),
                        fault_stats=header.get("fault_stats"),
                        transfer_stats=header.get("transfer_stats"))
            for line in fh:
                d = json.loads(line)
                d["arch_seq"] = tuple(d["arch_seq"])
                trace.append(TraceRecord(**d))
        return trace
