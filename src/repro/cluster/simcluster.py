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

Heterogeneous clusters (Table II's A100/K80 mix) are modelled with
``gpu_speeds`` — per-GPU multipliers on training throughput.

The I/O fast path of :func:`repro.cluster.run_search` has matching cost
parameters so simulated and real traces use the same accounting:
``run(cache=...)`` models (and actually uses — the simulator really
loads weights) an in-memory provider cache whose hits cost
``cache_hit_seconds`` instead of a modelled disk read, and
``run(async_io=True)`` models write-behind saves — only the snapshot
memcpy (``bytes / memcpy_bandwidth``) blocks the virtual critical path
while the modelled disk write lands in ``record.io_hidden``.
``record.overhead`` stays the total I/O cost in both modes, exactly as
in the real scheduler.  ``run(transfer_backend="supernet")`` mirrors the
zero-copy entangled-store path: no checkpoint is loaded or saved at
all, and each candidate is charged only ``CostModel.slice_seconds`` of
view re-binding bookkeeping — the simulated counterpart of the real
backend's claim that per-transfer blocked I/O collapses to ~0.

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
from typing import Optional, Sequence

import numpy as np

from ..checkpoint import CorruptCheckpointError, make_cache
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
    proxy_seconds: float = 1.0        # one zero-cost proxy score (fresh)
    ckpt_latency: float = 0.05        # fixed latency per checkpoint I/O
    write_bandwidth: float = 200e6    # bytes/s, candidate -> store
    read_bandwidth: float = 400e6     # bytes/s, store -> candidate
    cache_hit_seconds: float = 1e-4   # in-memory provider cache hit
    memcpy_bandwidth: float = 5e9     # bytes/s, write-behind snapshot copy
    #: supernet view re-binding: O(tensor count) slice bookkeeping, no
    #: payload — this replaces *both* load_seconds and save_seconds on
    #: the zero-copy path, which is the entire speedup claim
    slice_seconds: float = 1e-4
    #: compiling one StepPlan (engine="plan"): charged once per *fresh*
    #: structural signature — candidates that re-use a cached plan pay
    #: nothing, mirroring the real PlanCache
    plan_trace_seconds: float = 2.0

    def train_seconds(self, num_params: int, speed: float = 1.0) -> float:
        return (self.base_seconds + self.seconds_per_param * num_params) / speed

    def save_seconds(self, nbytes: int) -> float:
        return self.ckpt_latency + nbytes / self.write_bandwidth

    def load_seconds(self, nbytes: int) -> float:
        return self.ckpt_latency + nbytes / self.read_bandwidth

    def enqueue_seconds(self, nbytes: int) -> float:
        """Blocking cost of a write-behind save: the in-memory snapshot
        copy; the disk write itself is hidden behind training."""
        return nbytes / self.memcpy_bandwidth


class SimulatedCluster:
    """G virtual GPUs fed by a serial dispatcher; real model training."""

    def __init__(self, problem, store, *, num_gpus: int = 8,
                 cost_model: Optional[CostModel] = None,
                 gpu_speeds: Optional[Sequence[float]] = None):
        if num_gpus < 1:
            raise ValueError("num_gpus must be >= 1")
        self.problem = problem
        self.store = store
        self.num_gpus = num_gpus
        self.cost = cost_model or CostModel()
        if gpu_speeds is None:
            gpu_speeds = [1.0] * num_gpus
        if len(gpu_speeds) != num_gpus:
            raise ValueError("need one speed factor per GPU")
        self.gpu_speeds = [float(s) for s in gpu_speeds]

    def run(self, strategy, num_candidates: int, *,
            scheme: str = "baseline", provider_policy="parent",
            seed: int = 0, transfer_backend="checkpoint",
            cache=None, async_io: bool = False,
            static_gate=None, zero_cost=None,
            faults: Optional[FaultModel] = None,
            retry: Optional[RetryPolicy] = None,
            engine: str = "eager") -> Trace:
        from .scheduler import _resolve_supernet_backend
        if engine not in ("eager", "plan"):
            raise ValueError(f"unknown engine {engine!r}, expected "
                             f"'eager' or 'plan'")
        transfers = scheme != "baseline"
        backend = _resolve_supernet_backend(transfer_backend, self.problem,
                                            scheme, seed)
        if backend is not None and not transfers:
            raise ValueError("transfer_backend='supernet' needs a transfer "
                             "scheme ('lp' or 'lcs')")
        if transfers and backend is None and self.store is None:
            raise ValueError(f"scheme {scheme!r} needs a checkpoint store")
        # same gating knobs as run_search; the proxy tier's virtual cost
        # (proxy_seconds per *fresh* score) is charged to the serial
        # dispatcher below, mirroring where the real scheduler pays it
        from ..analysis.zerocost import make_gate
        made = make_gate(self.problem, static_gate=static_gate,
                         zero_cost=zero_cost)
        if made is not None and strategy.gate is None:
            strategy.gate = made
        gate = getattr(strategy, "gate", None)
        policy = get_policy(provider_policy, space=self.problem.space)
        rng = np.random.default_rng(seed)
        # dedicated streams: the fault schedule never perturbs provider
        # selection, so faults=None and faults=FaultModel() (all-zero
        # rates) produce bit-identical traces
        fault_rng = np.random.default_rng((seed, 0xFA17))
        retry = retry or RetryPolicy(max_attempts=3, base_delay=1.0,
                                     jitter=0.0)
        fault_stats = FaultStats()
        uses_store = transfers and backend is None
        weight_cache = make_cache(cache) if uses_store else None
        arch_by_id: dict[int, tuple] = {}
        plan_sigs: set = set()     # structural signatures already traced
        if engine == "plan":
            from ..tensor.engine import get_plan_cache
            plan_stats0 = get_plan_cache().stats()
        xfer_copied_bytes = 0
        xfer_resliced = 0
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
                if record.ok:
                    arch_by_id[record.candidate_id] = record.arch_seq
                trace.append(record)

        for candidate_id in range(num_candidates):
            free_time, gpu = heapq.heappop(gpus)
            dispatch_at = max(dispatcher_free, free_time)
            drain(dispatch_at)
            proxied_before = gate.stats.proxy_scored if gate else 0
            proposal = strategy.ask()
            dispatcher_free = dispatch_at + self.cost.dispatch_latency
            if gate is not None:
                # every fresh proxy score this ask triggered (rejected
                # candidates included) occupies the serial dispatcher
                fresh_scores = gate.stats.proxy_scored - proxied_before
                dispatcher_free += fresh_scores * self.cost.proxy_seconds
            record = TraceRecord(
                candidate_id=candidate_id,
                arch_seq=tuple(proposal.arch_seq), score=float("nan"),
                scheme=scheme, parent_id=proposal.parent_id,
                start_time=dispatcher_free,
            )
            provider_weights = None
            provider_seq = None
            if transfers and backend is not None:
                # zero-copy: no load, no payload — only the slice
                # bookkeeping of the bind is charged to the virtual clock
                provider = policy.select(proposal, trace.ok_records(), rng)
                if provider is not None and provider in arch_by_id:
                    record.provider_id = provider
                    provider_seq = arch_by_id[provider]
                record.add_io_blocked(self.cost.slice_seconds)
            elif transfers:
                provider = policy.select(proposal, trace.ok_records(), rng)
                if provider is not None:
                    key = checkpoint_key(provider)
                    if weight_cache is not None:
                        provider_weights = weight_cache.get(key)
                    if provider_weights is not None:
                        record.cache_hit = True
                        record.provider_id = provider
                        record.add_io_blocked(self.cost.cache_hit_seconds)
                    elif self.store.exists(key):
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
                            if weight_cache is not None:
                                weight_cache.put(key, provider_weights)

            # real training, virtual time
            if backend is not None:
                result = estimate_candidate(
                    self.problem, record.arch_seq,
                    seed=seed + candidate_id, supernet=backend,
                    provider_seq=provider_seq, keep_weights=False,
                    engine=engine,
                )
            else:
                result = estimate_candidate(
                    self.problem, record.arch_seq, seed=seed + candidate_id,
                    provider_weights=provider_weights,
                    matcher=scheme if transfers else "lcs",
                    keep_weights=uses_store,
                    engine=engine,
                )
            plan_overhead = 0.0
            if engine == "plan" and result.ok:
                # mirror the real PlanCache: tracing is paid once per
                # fresh structural signature, re-users ride for free
                from ..tensor.engine import network_signature
                try:
                    sig = network_signature(self.problem.build_model(
                        record.arch_seq, rng=seed + candidate_id))
                except Exception:
                    sig = None
                if sig is not None and sig not in plan_sigs:
                    plan_sigs.add(sig)
                    plan_overhead = self.cost.plan_trace_seconds
            record.ok = result.ok
            record.score = result.score
            record.num_params = result.num_params
            record.error = result.error
            if result.transfer_stats is not None:
                record.transferred = result.transfer_stats.transferred
                record.transfer_coverage = result.transfer_stats.coverage
                xfer_copied_bytes += int(getattr(
                    result.transfer_stats, "copied_bytes", 0))
                xfer_resliced += int(getattr(
                    result.transfer_stats, "resliced_params", 0))
            duration = self.cost.train_seconds(result.num_params,
                                               self.gpu_speeds[gpu])

            # -- fault injection, in virtual time -----------------------
            extra_seconds = 0.0
            crashed = False
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
                        crashed = True
                        fault_stats.failed_records += 1
                        break
                    backoff = retry.delay(record.attempts, None)
                    extra_seconds += backoff
                    fault_stats.backoff_seconds += backoff
                    fault_stats.retries += 1
                    record.attempts += 1
            if crashed:
                record.ok = False
                record.score = FAILURE_SCORE
                record.error = "injected: crash (retries exhausted)"
                if backend is not None and result.ok:
                    # a crashed candidate must not leave its training in
                    # the shared store (a failed candidate never produces
                    # a checkpoint either): scrub its slices back to
                    # fresh values via a rebuilt model of the same shape
                    try:
                        model = self.problem.build_model(
                            record.arch_seq, rng=seed + candidate_id)
                        backend.scrub(model)
                    except Exception:
                        pass   # unbuildable arch never touched the store

            if transfers and record.ok and result.weights is not None:
                key = checkpoint_key(candidate_id)
                info = self.store.save(
                    key, result.weights,
                    meta={"arch_seq": list(record.arch_seq),
                          "score": record.score, "scheme": scheme},
                )
                record.ckpt_bytes = info.nbytes
                if async_io:
                    record.add_io_blocked(self.cost.enqueue_seconds(info.nbytes))
                    record.add_io_hidden(self.cost.save_seconds(info.nbytes))
                else:
                    record.add_io_blocked(self.cost.save_seconds(info.nbytes))
                if faults is not None and faults.corrupt_prob and \
                        float(fault_rng.uniform()) < faults.corrupt_prob:
                    # genuinely truncate the payload: a later provider load
                    # hits CorruptCheckpointError and the quarantine path
                    fault_stats.record_fault("corrupt_write")
                    path = self.store.path(key)
                    blob = path.read_bytes()
                    path.write_bytes(blob[:max(1, len(blob) // 3)])
                elif weight_cache is not None:
                    weight_cache.put(key, result.weights)
            # hidden I/O is, by definition, off the critical path: only
            # the blocked seconds extend the candidate's GPU occupancy
            record.end_time = (record.start_time + duration
                               + plan_overhead + extra_seconds
                               + record.io_blocked)
            heapq.heappush(completions,
                           (record.end_time, candidate_id, record))
            heapq.heappush(gpus, (record.end_time, gpu))

        drain(float("inf"))
        if transfers:
            transfer_stats: dict = {
                "backend": "supernet" if backend is not None
                else "checkpoint",
                "copied_bytes": int(xfer_copied_bytes),
                "resliced_params": int(xfer_resliced),
            }
            if backend is not None:
                transfer_stats["store"] = backend.stats()
            trace.transfer_stats = transfer_stats
        if weight_cache is not None or async_io:
            trace.io_stats = {}
            if weight_cache is not None:
                trace.io_stats["cache"] = weight_cache.stats()
            if async_io:
                trace.io_stats["async_io"] = True
        if faults is not None:
            trace.fault_stats = fault_stats.as_dict()
        if engine == "plan":
            trace.engine_stats = {
                "engine": engine,
                "plans_traced_virtual": len(plan_sigs),
                "plan_trace_virtual_seconds":
                    len(plan_sigs) * self.cost.plan_trace_seconds,
                **get_plan_cache().stats_since(plan_stats0),
            }
        if gate is not None:
            stats = gate.stats.as_dict()
            # virtual proxy cost actually charged to the dispatcher
            # (wall-clock proxy_seconds in the stats is the real compute)
            stats["proxy_virtual_seconds"] = (gate.stats.proxy_scored
                                              * self.cost.proxy_seconds)
            trace.static_stats = stats
        return trace
