"""Discrete-event cluster simulator (paper §IX, Figs. 10-11).

The paper measures scalability on 8/16/32-GPU allocations of ThetaGPU;
we reproduce the *dynamics* with a virtual-clock simulator while keeping
the *scores* real (DESIGN.md: virtual clock, real training).  Each
candidate is genuinely trained by :func:`estimate_candidate` when it is
dispatched, but the time it is charged comes from a per-application
:class:`CostModel`:

* training seconds grow affinely with the candidate's parameter count,
* the serial dispatcher charges a fixed latency per submission (this is
  what caps NT3's scaling in the paper),
* transfer schemes additionally pay checkpoint read/write time derived
  from the real checkpoint byte sizes and modelled bandwidths; the
  baseline scheme performs no checkpoint I/O at all.

Every GPU runs at the same speed, as in the paper's homogeneous A100
allocations.

Only the paper's configuration is simulated: the parent provider and
synchronous checkpoints.  The loop is the same
ask → select → load → transfer → train → save → tell sequence as
:func:`repro.cluster.run_search`, which saves write-behind and reads
providers through a cache; at one GPU the two give identical records
(``tests/test_simcluster.py``), so this is the synchronous reference
for that I/O path.

Fault model (DESIGN.md "Fault tolerance"): ``run(faults=FaultModel(...))``
injects the cluster pathologies the paper's 32-GPU campaigns live with,
in virtual time but with *real* side effects where it matters:

* **crashes** — an attempt consumes a uniform fraction of its training
  time, then fails; the ``retry`` policy replays it (backoff charged to
  the virtual clock) or the candidate lands as a failed record;
* **stragglers** — a slow node multiplies the attempt's duration;
* **corrupt checkpoints** — the saved payload is *actually truncated
  on disk*, so a later provider load genuinely raises
  :class:`CorruptCheckpointError`, is quarantined, and the child
  cold-starts — the same code path as the real scheduler.

Fault counters land in ``trace.fault_stats``, so the paper's 1.4–1.5×
speedup claims can be re-measured under failure rates (the
``ablation-faults`` experiment).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..checkpoint import CorruptCheckpointError
from ..nas.estimation import FAILURE_SCORE, estimate_candidate
from ..transfer.policy import get_policy
from .resilience import FaultStats, RetryPolicy
from .trace import Trace, TraceRecord, checkpoint_key


@dataclass(frozen=True)
class FaultModel:
    """Failure rates for a simulated campaign (all independent draws
    from the run's dedicated fault rng, so a seeded run replays the
    exact same fault schedule)."""

    crash_prob: float = 0.0        # attempt dies partway through training
    straggler_prob: float = 0.0    # attempt lands on a slow node
    straggler_factor: float = 4.0  # how slow that node is
    corrupt_prob: float = 0.0      # saved checkpoint is truncated on disk

    def __post_init__(self):
        for name in ("crash_prob", "straggler_prob", "corrupt_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.straggler_factor < 1.0:
            raise ValueError("straggler_factor must be >= 1")


@dataclass(frozen=True)
class CostModel:
    """Virtual-time cost of one candidate estimation task."""

    base_seconds: float = 20.0        # fixed cost: startup, data loading
    seconds_per_param: float = 1e-4   # marginal training cost per weight
    dispatch_latency: float = 0.5     # serial scheduler, per submission
    ckpt_latency: float = 0.05        # fixed latency per checkpoint I/O
    write_bandwidth: float = 200e6    # bytes/s, candidate -> store
    read_bandwidth: float = 400e6     # bytes/s, store -> candidate

    def train_seconds(self, num_params: int) -> float:
        return self.base_seconds + self.seconds_per_param * num_params

    def save_seconds(self, nbytes: int) -> float:
        return self.ckpt_latency + nbytes / self.write_bandwidth

    def load_seconds(self, nbytes: int) -> float:
        return self.ckpt_latency + nbytes / self.read_bandwidth


class SimulatedCluster:
    """G virtual GPUs fed by a serial dispatcher; real model training."""

    def __init__(self, problem, store, *, num_gpus: int = 8,
                 cost_model: Optional[CostModel] = None):
        if num_gpus < 1:
            raise ValueError("num_gpus must be >= 1")
        self.problem = problem
        self.store = store
        self.num_gpus = num_gpus
        self.cost = cost_model or CostModel()

    def run(self, strategy, num_candidates: int, *,
            scheme: str = "baseline", seed: int = 0,
            faults: Optional[FaultModel] = None,
            retry: Optional[RetryPolicy] = None) -> Trace:
        transfers = scheme != "baseline"
        if transfers and self.store is None:
            raise ValueError(f"scheme {scheme!r} needs a checkpoint store")
        policy = get_policy("parent", space=self.problem.space)
        rng = np.random.default_rng(seed)
        # dedicated streams: the fault schedule never perturbs provider
        # selection, so faults=None and faults=FaultModel() (all-zero
        # rates) produce bit-identical traces
        fault_rng = np.random.default_rng((seed, 0xFA17))
        retry = retry or RetryPolicy(max_attempts=3, base_delay=1.0,
                                     jitter=0.0)
        fault_stats = FaultStats()
        copied_bytes = 0
        trace = Trace(name=f"{self.problem.name}-{scheme}-g{self.num_gpus}",
                      scheme=scheme)
        # (free_time, gpu_index) — earliest-free GPU gets the next task
        gpus = [(0.0, g) for g in range(self.num_gpus)]
        heapq.heapify(gpus)
        completions: list = []   # (end_time, candidate_id, record)
        dispatcher_free = 0.0

        def drain(until: float) -> None:
            while completions and completions[0][0] <= until:
                _, _, record = heapq.heappop(completions)
                strategy.tell(record.candidate_id, record.arch_seq,
                              record.score)
                trace.append(record)

        for candidate_id in range(num_candidates):
            free_time, gpu = heapq.heappop(gpus)
            dispatch_at = max(dispatcher_free, free_time)
            drain(dispatch_at)
            proposal = strategy.ask()
            dispatcher_free = dispatch_at + self.cost.dispatch_latency
            record = TraceRecord(
                candidate_id=candidate_id,
                arch_seq=tuple(proposal.arch_seq), score=float("nan"),
                scheme=scheme, parent_id=proposal.parent_id,
                start_time=dispatcher_free,
            )
            provider_weights = None
            if transfers:
                provider = policy.select(proposal, trace.ok_records(), rng)
                key = None if provider is None else checkpoint_key(provider)
                if key is not None and self.store.exists(key):
                    # the read cost is paid before corruption is
                    # discovered, exactly like a real parallel FS
                    record.add_io_blocked(self.cost.load_seconds(
                        self.store.nbytes(key)))
                    try:
                        provider_weights = self.store.load(key)
                    except CorruptCheckpointError:
                        fault_stats.record_fault("corrupt_checkpoint")
                        fault_stats.quarantined += 1
                        self.store.quarantine(key)
                    else:
                        record.provider_id = provider

            # real training, virtual time
            result = estimate_candidate(
                self.problem, record.arch_seq, seed=seed + candidate_id,
                provider_weights=provider_weights,
                matcher=scheme if transfers else "lcs",
                keep_weights=transfers,
            )
            record.ok = result.ok
            record.score = result.score
            record.num_params = result.num_params
            record.error = result.error
            if result.transfer_stats is not None:
                record.transferred = result.transfer_stats.transferred
                record.transfer_coverage = result.transfer_stats.coverage
                copied_bytes += result.transfer_stats.copied_bytes
            duration = self.cost.train_seconds(result.num_params)

            # -- fault injection, in virtual time -----------------------
            extra_seconds = 0.0
            if faults is not None:
                if faults.straggler_prob and \
                        float(fault_rng.uniform()) < faults.straggler_prob:
                    fault_stats.record_fault("straggler")
                    extra_seconds += duration * (faults.straggler_factor
                                                 - 1.0)
                while faults.crash_prob and \
                        float(fault_rng.uniform()) < faults.crash_prob:
                    fault_stats.record_fault("injected")
                    # the attempt dies a uniform fraction into training
                    extra_seconds += duration * float(fault_rng.uniform())
                    if not retry.should_retry(record.attempts):
                        fault_stats.failed_records += 1
                        record.ok = False
                        record.score = FAILURE_SCORE
                        record.error = "injected: crash (retries exhausted)"
                        break
                    backoff = retry.delay(record.attempts, None)
                    extra_seconds += backoff
                    fault_stats.backoff_seconds += backoff
                    fault_stats.retries += 1
                    record.attempts += 1

            if transfers and record.ok and result.weights is not None:
                key = checkpoint_key(candidate_id)
                info = self.store.save(
                    key, result.weights,
                    meta={"arch_seq": list(record.arch_seq),
                          "score": record.score, "scheme": scheme},
                )
                record.ckpt_bytes = info.nbytes
                record.add_io_blocked(self.cost.save_seconds(info.nbytes))
                if faults is not None and faults.corrupt_prob and \
                        float(fault_rng.uniform()) < faults.corrupt_prob:
                    # genuinely truncate the payload: a later provider load
                    # hits CorruptCheckpointError and the quarantine path
                    fault_stats.record_fault("corrupt_write")
                    path = self.store.path(key)
                    blob = path.read_bytes()
                    path.write_bytes(blob[:max(1, len(blob) // 3)])
            record.end_time = (record.start_time + duration + extra_seconds
                               + record.io_blocked)
            heapq.heappush(completions,
                           (record.end_time, candidate_id, record))
            heapq.heappush(gpus, (record.end_time, gpu))

        drain(float("inf"))
        if transfers:
            # the real driver's schema
            trace.transfer_stats = {"copied_bytes": int(copied_bytes)}
        if faults is not None:
            trace.fault_stats = fault_stats.as_dict()
        return trace
