"""The three workloads: inputs from a seed, one round of work, checks.

A workload is set up once per run (:meth:`setup`) and then runs
*rounds*: one round is one complete unit a user would start and wait
for — a whole search for the ``evo-*`` workloads, a closed-loop serving
episode of a fresh :class:`~repro.service.SearchService` for
``svc-mix``.  Every round starts cold: the process-wide ``PlanCache`` and
the LP/LCS match LRU are cleared first, and their counters are read as
deltas from a snapshot taken at the round's start.

Inputs (:meth:`_Workload.schedule`): a run with seed ``s`` first plays
its *own* round — dataset and search both drawn from ``s`` — and then
``REPEATS`` passes over a fixed *panel* of search seeds ``0..P-1`` on
the app's seed-0 dataset, the passes interleaved so a slow stretch of
the machine hits different panel seeds.  On cifar10 the architectures
one search seed draws change its cost by up to 2x, which would spread
independent runs by more than any bound; the panel keeps the spread
down to the program's own, and the own round still feeds every seed
fresh inputs through every output check.  Same seed, same inputs.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
from measure import CounterSnapshot, share
from spans import Tracer

from repro.apps import get_app
from repro.checkpoint import (
    CheckpointStore,
    CorruptCheckpointError,
    ShardedCheckpointStore,
)
from repro.cluster import (
    RetryPolicy,
    SearchDriver,
    SerialEvaluator,
    ThreadPoolEvaluator,
    checkpoint_key,
)
from repro.experiments.config import get_config
from repro.nas import RegularizedEvolution, estimate_candidate
from repro.service import SearchService, SessionSpec, SessionState
from repro.tensor import get_plan_cache
from repro.transfer.transfer import _cached_match, match_cache_info

#: the repo's ``default`` experiment scale: N=16, S=8 and its app sizes
SCALE = get_config("default")
#: svc-mix sessions breed with the ``smoke`` scale's N=8, S=4: under
#: N=16 a 16-candidate session never leaves random warm-up, so no
#: provider would ever be loaded, cached, prefetched or transferred
SESSION_SCALE = get_config("smoke")


def workers() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


#: search seeds of the runs' own rounds start here, clear of the panel
OWN_SEED_BASE = 10_000
#: passes over the panel; a metric takes each panel seed's median pass
REPEATS = 3
#: records the panel must land so p90 keeps ten samples beyond it
MIN_RECORDS = 100


def _counters() -> dict:
    plan, match = get_plan_cache().stats(), match_cache_info()
    return {"plan_hits": plan["hits"], "plan_misses": plan["misses"],
            "plan_traces": plan["traces"],
            "match_hits": match.hits, "match_misses": match.misses}


@dataclass
class RoundResult:
    wall: float
    records: list                       # every TraceRecord that landed
    latencies: dict                     # candidate label -> seconds
    turnarounds: list                   # seconds, submit to last record
    counters: dict                      # deltas over the round
    failures: list = field(default_factory=list)   # failed checks
    key: object = None                  # "own" or the panel seed
    proxy_checked: int = 0
    proxy_rejected: int = 0


def _problem(app: str, seed: int):
    return get_app(app).problem(seed=seed, **SCALE.app_overrides[app])


class _Workload:
    app: str

    def setup(self, seed: int):
        """The panel's and the run's own problem, and one cold
        estimation of a fixed architecture so first-call costs land in
        set-up."""
        panel, own = _problem(self.app, 0), _problem(self.app, seed)
        arch = panel.space.sample(np.random.default_rng(0))
        estimate_candidate(panel, arch, seed=0)
        return panel, own

    def schedule(self, ctx, seed: int, seconds: float, trace: bool):
        """``(key, problem, search seed)`` of every round of a run.

        The panel holds as many seeds as ``REPEATS`` passes fill in
        ``seconds`` on the reference machine (2 vCPUs), and enough to
        land ``MIN_RECORDS``.  The count follows from the arguments, not
        from the machine's speed, so a faster program runs the same work
        in less time.  A traced run makes one pass (each round becomes
        an untraced/traced pair)."""
        panel, own = ctx
        size = max(round(seconds / (REPEATS * self.round_seconds)),
                   math.ceil(MIN_RECORDS / self.candidates))
        yield "own", own, OWN_SEED_BASE + seed
        for _ in range(1 if trace else REPEATS):
            for p in range(size):
                yield p, panel, p


def _cold_start() -> CounterSnapshot:
    get_plan_cache().clear()
    _cached_match.cache_clear()
    return CounterSnapshot(_counters)


class EvoWorkload(_Workload):
    """``RegularizedEvolution`` (N=16, S=8), parent provider, LCS,
    checkpoint backend with synchronous I/O, eager engine, one
    ``SerialEvaluator``; a round is one search of ``candidates``."""

    service = False

    def __init__(self, app: str, candidates: int, round_seconds: float):
        self.app = app
        self.candidates = candidates
        self.round_seconds = round_seconds
        self.workers = 1

    def run_round(self, problem, seed: int, workdir: Path,
                  tracer: Optional[Tracer] = None) -> RoundResult:
        root = workdir / f"{self.app}-{seed}"
        store = CheckpointStore(root)
        strategy = RegularizedEvolution(
            problem.space, rng=seed, population_size=SCALE.population_size,
            sample_size=SCALE.sample_size)
        evaluator = SerialEvaluator()
        if tracer is not None:
            tracer.wrap_evaluator(evaluator)
        counters = _cold_start()
        t0 = time.perf_counter()
        with tracer.span("round") if tracer else nullcontext():
            driver = SearchDriver(problem, strategy, self.candidates,
                                  scheme="lcs", store=store,
                                  evaluator=evaluator, seed=seed)
            while not driver.done:
                driver.step()
            trace = driver.finalize()
        wall = time.perf_counter() - t0
        result = RoundResult(
            wall, list(trace.records),
            {r.candidate_id: r.end_time - r.start_time for r in trace},
            [wall], counters.delta())
        result.failures = self._check(driver, trace, store)
        shutil.rmtree(root, ignore_errors=True)
        return result

    def _check(self, driver, trace, store) -> list:
        failures = []
        if not driver.submitted == driver.completed == self.candidates \
                or len(trace) != self.candidates:
            failures.append(f"{trace.name}: submitted {driver.submitted}, "
                            f"completed {driver.completed}, records "
                            f"{len(trace)} of {self.candidates}")
        for r in trace.ok_records():
            key = checkpoint_key(r.candidate_id)
            try:
                sidecar = json.loads(store.meta_path(key).read_text())
                if "__crc32__" not in sidecar:
                    raise ValueError("sidecar has no CRC")
                store.load(key)            # verifies the CRC
            except (OSError, ValueError, CorruptCheckpointError) as exc:
                failures.append(f"{trace.name}: checkpoint {key}: {exc!r}")
        return failures


#: svc-mix tenants: name -> SessionSpec keyword arguments
TENANTS = {
    "ckpt": {},
    "fastio": {"cache": True, "prefetch": True,
               "extra_driver_kwargs": {"async_io": True,
                                       "zero_cost": True}},
    "supernet": {"engine": "plan",
                 "extra_driver_kwargs": {"transfer_backend": "supernet"}},
    "chaos": {"scheme": "baseline", "engine": "plan",
              "retry": RetryPolicy(max_attempts=3)},
}
CHAOS_CRASH_PROB = 0.1


class ServiceWorkload(_Workload):
    """A closed loop of one mnist session (16 candidates) outstanding
    per tenant on a ``SearchService`` over one ``ThreadPoolEvaluator``
    with ``nproc`` workers, a 4-shard ``ShardedCheckpointStore`` and
    journals on.  A tenant submits its next session from the drive
    thread, in ``SessionSpec.on_record``, when the last record of its
    previous one lands; a round ends after ``sessions`` per tenant."""

    app = "mnist"
    service = True
    candidates_per_session = 16
    round_seconds = 3.0

    def __init__(self, sessions: int):
        self.sessions = sessions
        self.workers = workers()
        self.candidates = len(TENANTS) * sessions * \
            self.candidates_per_session

    def run_round(self, problem, seed: int, workdir: Path,
                  tracer: Optional[Tracer] = None) -> RoundResult:
        root = workdir / f"svc-{seed}"
        evaluator = ThreadPoolEvaluator(num_workers=self.workers)
        if tracer is not None:
            tracer.wrap_evaluator(evaluator)
        service = SearchService(
            evaluator=evaluator,
            store=ShardedCheckpointStore(root / "store", num_shards=4),
            journal_dir=root / "journals",
            max_active_sessions=2 * len(TENANTS), tenant_max_sessions=2)
        sessions: list = []       # (tenant, k, handle, submitted_at, box)

        def submit(tenant: str, k: int) -> None:
            session_seed = 100 * seed + 10 * list(TENANTS).index(tenant) + k
            box = {"records": 0, "last": None}

            def on_record(record) -> None:
                box["records"] += 1
                if box["records"] == self.candidates_per_session:
                    box["last"] = time.perf_counter()
                    if k + 1 < self.sessions:
                        submit(tenant, k + 1)

            kwargs = dict(TENANTS[tenant])
            if tenant == "chaos":
                kwargs["chaos"] = {"crash_prob": CHAOS_CRASH_PROB,
                                   "seed": session_seed}
            spec = SessionSpec(
                problem=problem,
                strategy=RegularizedEvolution(
                    problem.space, rng=session_seed,
                    population_size=SESSION_SCALE.population_size,
                    sample_size=SESSION_SCALE.sample_size),
                num_candidates=self.candidates_per_session,
                tenant=tenant, name=f"{tenant}{k}", seed=session_seed,
                on_record=on_record, **kwargs)
            submitted_at = time.perf_counter()
            sessions.append((tenant, k, service.submit(spec), submitted_at,
                             box))

        counters = _cold_start()
        t0 = time.perf_counter()
        try:
            with tracer.span("round") if tracer else nullcontext():
                for tenant in TENANTS:
                    submit(tenant, 0)
                service.drive()
            wall = time.perf_counter() - t0
        finally:
            evaluator.close()
        records, latencies, turnarounds, failures = [], {}, [], []
        result = RoundResult(wall, records, latencies, turnarounds,
                             counters.delta(), failures)
        for tenant, k, handle, submitted_at, box in sessions:
            failures.extend(self._check(tenant, handle))
            if handle.poll().state != SessionState.DONE:
                continue
            trace = handle.result()
            records.extend(trace.records)
            latencies.update({(tenant, k, r.candidate_id):
                              r.end_time - r.start_time for r in trace})
            turnarounds.append(box["last"] - submitted_at)
            if trace.static_stats and "proxy_checked" in trace.static_stats:
                result.proxy_checked += trace.static_stats["proxy_checked"]
                result.proxy_rejected += \
                    trace.static_stats["proxy_rejected"]
        expected = len(TENANTS) * self.sessions
        if len(sessions) != expected or len(records) != self.candidates:
            failures.append(f"{len(sessions)} sessions of {expected}, "
                            f"{len(records)} records of {self.candidates}")
        shutil.rmtree(root, ignore_errors=True)
        return result

    def _check(self, tenant: str, handle) -> list:
        sid = handle.session_id
        status = handle.poll()
        if status.state != SessionState.DONE:
            return [f"{sid}: ended {status.state} ({status.error})"]
        failures = []
        if not status.submitted == status.completed \
                == self.candidates_per_session:
            failures.append(f"{sid}: submitted {status.submitted}, "
                            f"completed {status.completed}")
        faults = handle.result().fault_stats or {}
        if tenant == "chaos":
            injected = faults.get("chaos", {}).get("injected", {})
            booked = faults.get("by_kind", {}).get("injected", 0)
            if booked != injected.get("crash", -1):
                failures.append(f"{sid}: booked {booked} injected faults, "
                                f"chaos injected {injected}")
        elif faults.get("total_faults", 0):
            failures.append(f"{sid}: clean tenant booked faults {faults}")
        return failures


WORKLOADS = {
    "evo-cifar10": lambda: EvoWorkload("cifar10", candidates=32,
                                       round_seconds=2.2),
    "evo-uno": lambda: EvoWorkload("uno", candidates=240, round_seconds=2.6),
    "svc-mix": lambda: ServiceWorkload(sessions=2),
}


def proxy_reject_share(rounds) -> float:
    return share(sum(r.proxy_rejected for r in rounds),
                 sum(r.proxy_checked for r in rounds))
