"""The NAS scheduler loop (paper Fig. 6, steps 1-5).

``run_search`` wires a strategy to an evaluator and a checkpoint store:

1. ask the strategy for a candidate,
2. pick its weight provider (parent by default; pluggable policy),
3. load the provider's checkpoint and transfer selectively (LP/LCS),
4. train/estimate the candidate on an evaluator worker,
5. checkpoint its weights and tell the strategy the score.

``scheme`` selects the paper's three configurations: ``"baseline"``
(cold start, **no checkpointing at all** — see DESIGN.md), ``"lp"`` and
``"lcs"``.  Wall-clock timestamps land in the returned :class:`Trace`.

Re-entrant driver (DESIGN.md "Service architecture"): the loop itself
lives in :class:`SearchDriver` — one ``step()`` submits what fits and
consumes one completion, so a single search can be advanced
incrementally and many searches can be multiplexed onto one shared
evaluator fleet by an outer scheduler (:class:`repro.service
.SearchService`).  ``run_search`` is the thin drive-to-completion
wrapper and keeps its historical contract exactly.

Checkpoint I/O fast path (DESIGN.md "Checkpoint I/O pipeline"): by
default every provider load and candidate save runs synchronously on
the scheduler thread — that is the paper's measured overhead, and it is
the largest serial bottleneck of the loop.  Three knobs take it off the
critical path while keeping traces semantically identical:

- ``cache=True`` (or a byte budget / :class:`WeightCache`) — an
  in-memory LRU over provider weights; hits skip disk entirely.
- ``prefetch=True`` — a background reader speculatively loads the
  strategy's likely providers (its current population) into the cache
  while workers train.
- ``async_io=True`` (or an :class:`AsyncCheckpointWriter`) — candidate
  saves become write-behind; a drain barrier before the trace is
  finalized guarantees every checkpoint is durable and back-fills
  ``ckpt_bytes``.

I/O accounting stays honest: ``record.overhead`` remains the *total*
checkpoint I/O seconds (so Fig. 11 and the simulator calibration are
unchanged), split into ``record.io_blocked`` (actually stalled the
ask→submit→tell loop) and ``record.io_hidden`` (absorbed by the
prefetch reader or the write-behind writer).  Synchronous runs have
``io_hidden == 0`` and ``io_blocked == overhead``.

Fault tolerance (DESIGN.md "Fault tolerance"): worker exceptions never
crash the loop.  An evaluator hands back a
:class:`repro.cluster.resilience.TaskFailure` for a raising task; the
scheduler books the fault by taxonomy kind, retries it under the
``retry`` policy (bounded, backoff with a *dedicated* jitter rng so the
provider-policy rng stream is untouched), and exhausted retries land as
failed records on the ``FAILURE_SCORE`` path — identical to how an
unbuildable architecture has always been handled.  ``task_timeout``
sets a per-task deadline (pool evaluators only: serial tasks run inline
on submit); overdue tickets are abandoned and retried.  A corrupt
provider checkpoint is quarantined into the store's ``.quarantine/``
directory and the candidate cold-starts.  ``journal=`` appends every
completed record durably to a jsonl :class:`TraceJournal` as it lands,
and ``resume=`` replays such a journal — restoring strategy state via
:meth:`Strategy.restore` — so a killed run continues from its last
durable candidate with already-completed records bit-identical.  All
fault counters serialize into ``trace.fault_stats``.  A sync candidate
save that raises (e.g. every shard of a
:class:`~repro.checkpoint.ShardedCheckpointStore` tripped its circuit
breaker) is booked as a ``ckpt_write`` fault and the search continues —
the candidate simply has no checkpoint to provide from.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from ..checkpoint import (
    AsyncCheckpointWriter,
    CorruptCheckpointError,
    ProviderPrefetcher,
    make_cache,
)
from ..nas.estimation import FAILURE_SCORE, estimate_candidate
from ..transfer.policy import get_policy
from ..transfer.supernet import SuperNet, SupernetTransferBackend
from .evaluator import ProcessPoolEvaluator, SerialEvaluator
from .resilience import (
    ChaosEvaluator,
    FaultStats,
    RetryPolicy,
    TaskFailure,
    TaskTimeout,
    TraceJournal,
    WaitTimeout,
)
from .trace import Trace, TraceRecord, checkpoint_key

SCHEMES = ("baseline", "lp", "lcs")


@dataclass
class _Pending:
    """One in-flight candidate: everything needed to finalize it — or
    resubmit the very same task when its worker crashes or hangs."""

    record: TraceRecord
    task: Callable[[], object]
    attempt: int = 1
    deadline: Optional[float] = None      # monotonic, None = no deadline


def _evaluate_task(problem, arch_seq, seed, provider_weights, matcher,
                   keep_weights, engine="eager"):
    """Module-level so ProcessPoolEvaluator can pickle it; a process
    pool receives the provider weights pickled inside the task."""
    return estimate_candidate(
        problem, arch_seq, seed=seed, provider_weights=provider_weights,
        matcher=matcher, keep_weights=keep_weights, engine=engine,
    )


def _evaluate_supernet_task(problem, arch_seq, seed, backend, descriptor,
                            engine="eager"):
    """The zero-copy counterpart of :func:`_evaluate_task`: instead of a
    weight payload the worker receives a tiny
    :class:`~repro.transfer.SliceDescriptor` and resolves it by binding
    the candidate to shared superweight views — training writes through
    in place, so nothing is copied and nothing is checkpointed.  Only
    in-process evaluators may run this (the scheduler rejects process
    pools for the supernet backend)."""
    provider_seq = None if descriptor is None else \
        descriptor.provider_arch_seq
    return estimate_candidate(
        problem, arch_seq, seed=seed, supernet=backend,
        provider_seq=provider_seq, keep_weights=True, engine=engine,
    )


def _resolve_supernet_backend(transfer_backend, problem, scheme,
                              seed) -> Optional[SupernetTransferBackend]:
    """Normalise the ``transfer_backend`` knob: ``"checkpoint"`` → None
    (the copy path), ``"supernet"`` / a SuperNet / a configured backend
    → the zero-copy backend."""
    if isinstance(transfer_backend, SupernetTransferBackend):
        return transfer_backend
    matcher = scheme if scheme in ("lp", "lcs") else "lcs"
    if isinstance(transfer_backend, SuperNet):
        return SupernetTransferBackend(transfer_backend, matcher=matcher)
    if transfer_backend == "supernet":
        return SupernetTransferBackend(SuperNet(problem.space, seed=seed),
                                       matcher=matcher)
    if transfer_backend != "checkpoint":
        raise ValueError(
            f"unknown transfer_backend {transfer_backend!r}, expected "
            f"'checkpoint', 'supernet', a SuperNet or a "
            f"SupernetTransferBackend")
    return None


def _uses_process_pool(evaluator) -> bool:
    return isinstance(evaluator, ProcessPoolEvaluator) or isinstance(
        getattr(evaluator, "evaluator", None), ProcessPoolEvaluator)


class SearchDriver:
    """Re-entrant, step-wise form of the ask→submit→tell loop.

    One instance owns the full per-search state — strategy, provider
    policy, checkpoint plumbing, fault containment, journal — but never
    loops on its own.  Three drive surfaces:

    - :meth:`step` — submit-what-fits + consume-one-completion; the
      single-search drive (``run_search`` calls it until :attr:`done`).
    - :meth:`submit_next` / :meth:`complete` — the *multiplexed* drive:
      an outer scheduler (``repro.service.SearchService``) decides when
      this search may submit, routes completions from a **shared**
      evaluator back by ticket, and uses :attr:`on_dispatch` to learn
      about retry resubmissions.  ``complete`` ignores tickets it does
      not own, so routing mistakes are inert.
    - :meth:`finalize` — drain barrier + stats attachment; returns the
      :class:`Trace`.  Callable mid-run (a drained/cancelled session's
      partial trace) and idempotent.

    Fault isolation is per-driver by construction: every counter
    (``fault_stats``), rng stream, journal and quarantine decision is
    instance state, so one search's chaos never touches another's.

    ``key_prefix`` namespaces this search's checkpoint keys inside a
    store shared between searches (the service sets it to the session
    id), so two tenants' ``cand_000003`` never collide.
    """

    def __init__(self, problem, strategy, num_candidates: int, *,
                 scheme: str = "baseline", store=None, evaluator=None,
                 provider_policy="parent", seed: int = 0,
                 static_gate=None, zero_cost=None,
                 name: Optional[str] = None,
                 transfer_backend="checkpoint",
                 cache=None, prefetch: bool = False, async_io=False,
                 retry: Optional[RetryPolicy] = None,
                 task_timeout: Optional[float] = None,
                 journal=None, resume=None,
                 engine: str = "eager",
                 key_prefix: str = "",
                 on_dispatch: Optional[Callable[[int], None]] = None,
                 on_record: Optional[Callable[[TraceRecord], None]] = None):
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}, expected {SCHEMES}")
        if engine not in ("eager", "plan"):
            raise ValueError(f"unknown engine {engine!r}, expected "
                             f"'eager' or 'plan'")
        self.problem = problem
        self.strategy = strategy
        self.num_candidates = int(num_candidates)
        self.scheme = scheme
        self.engine = engine
        self.store = store
        self.seed = seed
        self.task_timeout = task_timeout
        self.key_prefix = key_prefix
        #: outer-scheduler hook: called with every ticket this driver
        #: submits (first attempts *and* retry resubmissions), so a
        #: shared-evaluator multiplexer can route completions back here
        self.on_dispatch = on_dispatch
        #: called with every completed record after it is journaled and
        #: told to the strategy — the service's streaming surface
        self.on_record = on_record

        self.transfers = scheme != "baseline"
        self.backend = _resolve_supernet_backend(transfer_backend, problem,
                                                 scheme, seed)
        if self.backend is not None and not self.transfers:
            raise ValueError("transfer_backend='supernet' needs a transfer "
                             "scheme ('lp' or 'lcs'); the baseline scheme "
                             "never inherits weights")
        if self.transfers and self.backend is None and store is None:
            raise ValueError(f"scheme {scheme!r} needs a checkpoint store")
        self.retry = retry or RetryPolicy(max_attempts=1)
        from ..analysis.zerocost import make_gate
        gate = make_gate(problem, static_gate=static_gate,
                         zero_cost=zero_cost)
        if gate is not None and strategy.gate is None:
            strategy.gate = gate
        self.policy = get_policy(provider_policy, space=problem.space)
        self.evaluator = evaluator or SerialEvaluator()
        if self.backend is not None and _uses_process_pool(self.evaluator):
            raise ValueError(
                "transfer_backend='supernet' trains through shared "
                "in-process views; ProcessPoolEvaluator workers cannot "
                "write their updates back — use SerialEvaluator or "
                "ThreadPoolEvaluator")

        # -- I/O fast-path plumbing (all inert for the default sync run;
        # the supernet backend performs no checkpoint I/O at all, so the
        # prefetcher and write-behind writer stay off and a
        # cache is only created when the caller explicitly passes one) --
        uses_store = self.transfers and self.backend is None
        self.weight_cache = make_cache(cache, prefetch and uses_store) \
            if self.transfers else None
        self.writer = None
        self._owns_writer = False
        if uses_store and async_io:
            if isinstance(async_io, AsyncCheckpointWriter):
                self.writer = async_io
            else:
                self.writer = AsyncCheckpointWriter(store)
                self._owns_writer = True
        self.prefetcher = None
        if uses_store and prefetch:
            self.prefetcher = ProviderPrefetcher(store, self.weight_cache)
        # the PlanCache is shared by every search in this process:
        # finalize() reports only what accrued after this snapshot
        self._plan_stats0: Optional[dict] = None
        if engine == "plan" and not _uses_process_pool(self.evaluator):
            from ..tensor.engine import get_plan_cache
            self._plan_stats0 = get_plan_cache().stats()
        self._saved_keys: set[str] = set()   # saved this run (disk/queued)
        self._arch_by_id: dict[int, tuple] = {}   # ok candidates
        self._xfer_copied_bytes = 0
        self._xfer_resliced = 0

        self.rng = np.random.default_rng(seed)
        # jitter draws come from a dedicated stream so retries never
        # perturb provider selection — a chaos run with jitter still
        # replays the same providers (and scores) as a clean run
        self._retry_rng = np.random.default_rng((seed, 0x5EED))
        self.fault_stats = FaultStats()
        self.trace = Trace(name=name or f"{problem.name}-{scheme}",
                           scheme=scheme)
        self._t0 = time.perf_counter()
        self._pending: dict[int, _Pending] = {}   # ticket -> in-flight
        self.submitted = 0
        self.completed = 0
        self._max_in_flight = getattr(self.evaluator, "num_workers", 1)
        self._closed = False
        self._finalized: Optional[Trace] = None

        # -- resumable journal: replay completed records, keep appending
        journal_path = journal if journal is not None else resume
        self._journal: Optional[TraceJournal] = None
        self.resumed_records = 0
        if resume is not None and Path(resume).exists() \
                and Path(resume).stat().st_size > 0:
            _, replayed = TraceJournal.replay(resume)
            replayed = replayed[:self.num_candidates]
            strategy.restore(replayed)
            for r in replayed:
                self.trace.append(r)
                self.completed += 1
                self.submitted = max(self.submitted, r.candidate_id + 1)
                if r.ok:
                    self._arch_by_id[r.candidate_id] = tuple(r.arch_seq)
            self.resumed_records = len(replayed)
        if journal_path is not None:
            self._journal = TraceJournal(journal_path, name=self.trace.name,
                                         scheme=scheme,
                                         append=self.resumed_records > 0)

    # -- progress surface ------------------------------------------------
    @property
    def done(self) -> bool:
        """Every candidate has landed as a record (ok or failed)."""
        return self.completed >= self.num_candidates

    @property
    def wants_submit(self) -> bool:
        """More candidates remain to be proposed."""
        return self.submitted < self.num_candidates

    @property
    def in_flight(self) -> int:
        """Tickets this driver is waiting on (its own, not the fleet's)."""
        return len(self._pending)

    def pending_tickets(self) -> list[int]:
        """The tickets currently owned by this driver (cancel support)."""
        return list(self._pending)

    @property
    def next_deadline(self) -> Optional[float]:
        """Earliest in-flight deadline (monotonic), None when none set."""
        return min((p.deadline for p in self._pending.values()
                    if p.deadline is not None), default=None)

    def _key(self, candidate_id: int) -> str:
        return self.key_prefix + checkpoint_key(candidate_id)

    # -- provider plumbing ----------------------------------------------
    def _load_provider(self, key: str, record: TraceRecord):
        """Provider weights via cache → disk → pending-writer fallback;
        returns None when the checkpoint does not exist anywhere — or
        turned out corrupt, in which case it is quarantined and the
        candidate cold-starts."""
        store, weight_cache, writer = self.store, self.weight_cache, \
            self.writer
        if weight_cache is not None:
            weights = weight_cache.get(key)
            if weights is not None:
                record.cache_hit = True
                # a prefetched entry carries the background load seconds
                record.add_io_hidden(weight_cache.take_hidden_seconds(key))
                return weights
        if key not in self._saved_keys and not store.exists(key):
            return None
        io0 = time.perf_counter()
        try:
            if writer is not None and not store.exists(key):
                # enqueued but not yet durable (rare: cache evicted/off)
                writer.flush()
            weights = store.load(key)
        except CorruptCheckpointError:
            record.add_io_blocked(time.perf_counter() - io0)
            self.fault_stats.record_fault("corrupt_checkpoint")
            self.fault_stats.quarantined += 1
            store.quarantine(key)
            self._saved_keys.discard(key)
            if weight_cache is not None:
                weight_cache.discard(key)
            return None                    # cold-start fallback
        except FileNotFoundError:
            record.add_io_blocked(time.perf_counter() - io0)
            return None
        record.add_io_blocked(time.perf_counter() - io0)
        if weight_cache is not None:
            weight_cache.put(key, weights)
        return weights

    def _request_prefetch(self) -> None:
        if self.prefetcher is None:
            return
        candidates = getattr(self.strategy, "provider_candidates", tuple)()
        self.prefetcher.request(self._key(cid) for cid in candidates)

    # -- submit side -----------------------------------------------------
    def submit_next(self) -> None:
        """Ask the strategy for one proposal and dispatch its evaluation
        task (the re-entrant half of the old inner submit loop).  The
        caller is responsible for capacity — this method always submits."""
        proposal = self.strategy.ask()
        candidate_id = self.submitted
        self.submitted += 1
        record = TraceRecord(
            candidate_id=candidate_id, arch_seq=tuple(proposal.arch_seq),
            score=float("nan"), scheme=self.scheme,
            parent_id=proposal.parent_id,
            start_time=time.perf_counter() - self._t0,
        )
        if self.backend is not None:
            # zero-copy path: the provider policy still picks whose
            # training signal to inherit, but all the worker needs is a
            # tiny slice descriptor — binding resolves it against the
            # shared store, no weights ever cross the submit boundary
            descriptor = None
            provider = self.policy.select(proposal, self.trace.ok_records(),
                                          self.rng)
            if provider is not None and provider in self._arch_by_id:
                record.provider_id = provider
                descriptor = self.backend.describe(
                    provider, self._arch_by_id[provider])
            task = functools.partial(
                _evaluate_supernet_task, self.problem, record.arch_seq,
                self.seed + candidate_id, self.backend, descriptor,
                self.engine,
            )
            self._dispatch(_Pending(record, task))
            return
        provider_weights = None
        if self.transfers:
            provider = self.policy.select(proposal, self.trace.ok_records(),
                                          self.rng)
            if provider is not None:
                provider_weights = self._load_provider(self._key(provider),
                                                       record)
                if provider_weights is not None:
                    record.provider_id = provider
        task = functools.partial(
            _evaluate_task, self.problem, record.arch_seq,
            self.seed + candidate_id, provider_weights,
            self.scheme if self.transfers else "lcs", self.transfers,
            self.engine,
        )
        self._dispatch(_Pending(record, task))

    def _dispatch(self, pend: _Pending) -> None:
        """(Re)submit a pending candidate's task to the evaluator."""
        if self.task_timeout is not None:
            pend.deadline = time.monotonic() + self.task_timeout
        ticket = self.evaluator.submit(pend.task)
        self._pending[ticket] = pend
        if self.on_dispatch is not None:
            self.on_dispatch(ticket)

    # -- completion side -------------------------------------------------
    def _finalize_record(self, pend: _Pending, record_update) -> None:
        """Book one completed candidate (success or exhausted failure):
        journal + tell + append, in that order, so the journal is at
        least as durable as anything derived from the trace."""
        record = pend.record
        record.end_time = time.perf_counter() - self._t0
        record.attempts = pend.attempt
        record_update(record)
        if record.ok:
            self._arch_by_id[record.candidate_id] = record.arch_seq
        if self._journal is not None:
            self._journal.append(record)
        self.strategy.tell(record.candidate_id, record.arch_seq,
                           record.score)
        self.trace.append(record)
        self.completed += 1
        self._request_prefetch()
        if self.on_record is not None:
            self.on_record(record)

    def _contain_failure(self, pend: _Pending,
                         failure: TaskFailure) -> None:
        """The containment decision: resubmit under the retry policy or
        land the candidate as a failed record on the FAILURE_SCORE path."""
        self.fault_stats.record_fault(failure.kind)
        if self.retry.should_retry(pend.attempt):
            delay = self.retry.delay(pend.attempt, self._retry_rng)
            if delay > 0.0:
                time.sleep(delay)
                self.fault_stats.backoff_seconds += delay
            pend.attempt += 1
            self.fault_stats.retries += 1
            self._dispatch(pend)
            return
        self.fault_stats.failed_records += 1

        def mark_failed(record: TraceRecord):
            record.ok = False
            record.score = FAILURE_SCORE
            record.error = f"{failure.kind}: {failure.error}"
        self._finalize_record(pend, mark_failed)

    def _complete_success(self, pend: _Pending, result) -> None:
        def apply(record: TraceRecord):
            record.ok = result.ok
            record.score = result.score
            record.num_params = result.num_params
            record.error = result.error
            if result.transfer_stats is not None:
                record.transferred = result.transfer_stats.transferred
                record.transfer_coverage = result.transfer_stats.coverage
                self._xfer_copied_bytes += int(getattr(
                    result.transfer_stats, "copied_bytes", 0))
                self._xfer_resliced += int(getattr(
                    result.transfer_stats, "resliced_params", 0))
            if self.backend is not None:
                # nothing to checkpoint — the trained slices already
                # live in the entangled store.  A caller-supplied cache
                # doubles as a zero-byte registry of the live views.
                if result.ok and result.weights is not None \
                        and self.weight_cache is not None:
                    self.weight_cache.put(self._key(record.candidate_id),
                                          result.weights, shared=True)
                return
            if self.transfers and result.ok and result.weights is not None:
                key = self._key(record.candidate_id)
                meta = {"arch_seq": list(record.arch_seq),
                        "score": record.score, "scheme": self.scheme}
                io0 = time.perf_counter()
                if self.writer is not None:
                    # write-behind: only the snapshot + enqueue blocks
                    # here; the payload write lands in io_hidden at
                    # the drain barrier
                    self.writer.save(key, result.weights, meta=meta)
                    self._saved_keys.add(key)
                else:
                    try:
                        info = self.store.save(key, result.weights,
                                               meta=meta)
                    except Exception:
                        # a full store outage (every shard's breaker
                        # open, disk gone) costs the checkpoint, not
                        # the search: children cold-start instead
                        self.fault_stats.record_fault("ckpt_write")
                    else:
                        record.ckpt_bytes = info.nbytes
                        self._saved_keys.add(key)
                record.add_io_blocked(time.perf_counter() - io0)
                if self.weight_cache is not None:
                    # write-through: children of this candidate hit in
                    # memory
                    self.weight_cache.put(key, result.weights)
        self._finalize_record(pend, apply)

    def sweep_deadlines(self) -> None:
        """Abandon every overdue in-flight ticket and contain it as a
        TaskTimeout (retry or failed record)."""
        now = time.monotonic()
        overdue = [t for t, p in self._pending.items()
                   if p.deadline is not None and p.deadline <= now]
        for ticket in overdue:
            abandon = getattr(self.evaluator, "abandon", None)
            if abandon is not None:
                abandon(ticket)
            pend = self._pending.pop(ticket)
            self._contain_failure(pend, TaskFailure(TaskTimeout(
                f"candidate {pend.record.candidate_id} exceeded "
                f"{self.task_timeout}s deadline "
                f"(attempt {pend.attempt})")))

    def complete(self, ticket: int, result) -> bool:
        """Consume one completion routed to this driver.  Returns True
        when a record landed (False: a retry was resubmitted, or the
        ticket is not ours — abandoned, or routed to the wrong session).

        The submitted = completed + in_flight invariant means every
        submitted candidate lands as exactly one record, ok or failed."""
        pend = self._pending.pop(ticket, None)
        if pend is None:
            return False
        before = self.completed
        if isinstance(result, TaskFailure):
            self._contain_failure(pend, result)
            return self.completed > before
        if getattr(result, "ok", False) and \
                not np.isfinite(getattr(result, "score", float("nan"))):
            # corrupt result (a flaky node returned garbage): contained
            # as a task_error, retried like any other fault
            self._contain_failure(pend, TaskFailure(
                Exception(f"corrupt result: non-finite score "
                          f"{result.score!r}"), kind="corrupt_result"))
            return self.completed > before
        self._complete_success(pend, result)
        return True

    def _wait_and_complete(self) -> None:
        """Wait for the next completion and consume it.  May complete
        zero records (a retry resubmission or a deadline sweep) — the
        outer loop re-checks."""
        if self.task_timeout is not None:
            earliest = self.next_deadline
            budget = None if earliest is None else \
                max(0.0, earliest - time.monotonic())
            try:
                ticket, result = self.evaluator.wait_any(timeout=budget)
            except WaitTimeout:
                self.sweep_deadlines()
                return
        else:
            ticket, result = self.evaluator.wait_any()
        self.complete(ticket, result)

    def step(self) -> None:
        """One re-entrant turn of the loop: submit what fits, then wait
        for (and consume) one completion.  Drive to completion with
        ``while not driver.done: driver.step()``."""
        while (self.wants_submit
               and self.evaluator.in_flight < self._max_in_flight):
            self.submit_next()
        self._wait_and_complete()

    # -- teardown --------------------------------------------------------
    def close(self) -> None:
        """Stop the background helpers (prefetch reader, journal).
        Idempotent; called by ``run_search``'s finally and by
        :meth:`finalize`."""
        if self._closed:
            return
        self._closed = True
        if self.prefetcher is not None:
            self.prefetcher.close()
        if self._journal is not None:
            self._journal.close()

    def finalize(self) -> Trace:
        """Drain barrier + stats attachment; returns the trace.  Safe to
        call mid-run (a drained or cancelled session finalizes its
        partial trace) and idempotent."""
        if self._finalized is not None:
            return self._finalized
        self.close()

        # -- drain barrier: make every write-behind save durable and
        # book its hidden cost before the trace is finalized -----------
        io_stats: dict = {}
        writer = self.writer
        if writer is not None:
            try:
                drain0 = time.perf_counter()
                try:
                    writer.flush()    # raise-on-first-error contract …
                except Exception as exc:
                    # … but a completed search is worth more than a lost
                    # checkpoint write: contain it (the full error list
                    # is surfaced below), don't discard the whole trace
                    self.fault_stats.record_fault("ckpt_write")
                    io_stats["drain_error"] = repr(exc)
                io_stats["drain_seconds"] = time.perf_counter() - drain0
                infos = writer.results()
                durations = writer.durations()
                for record in self.trace.records:
                    key = self._key(record.candidate_id)
                    if record.ckpt_bytes == 0 and key in infos:
                        record.ckpt_bytes = infos[key].nbytes
                    if key in self._saved_keys and key in durations:
                        record.add_io_hidden(durations[key])
            finally:
                # every captured write failure, not just the first raised
                errors = writer.error_log()
                if errors:
                    io_stats["writer_errors"] = [
                        f"{key}: {msg}" for key, msg in errors]
                if self._owns_writer:
                    try:
                        writer.close()
                    except Exception:
                        pass          # errors already in writer_errors
        if self.weight_cache is not None:
            io_stats["cache"] = self.weight_cache.stats()
        if self.prefetcher is not None:
            io_stats["prefetch"] = self.prefetcher.stats()
        if io_stats:
            self.trace.io_stats = io_stats

        # -- transfer accounting: which backend moved the training
        # signal and what it cost.  The supernet's whole claim is
        # visible here: copied_bytes == 0, resliced_params > 0 ---------
        if self.transfers:
            transfer_stats: dict = {
                "backend": "supernet" if self.backend is not None
                else "checkpoint",
                "copied_bytes": int(self._xfer_copied_bytes),
                "resliced_params": int(self._xfer_resliced),
            }
            if self.backend is not None:
                transfer_stats["store"] = self.backend.stats()
            self.trace.transfer_stats = transfer_stats

        # -- fault accounting: only attached when something actually
        # went wrong (or chaos was injected / a run was resumed), so
        # clean paper runs keep fault_stats is None ---------------------
        self.fault_stats.pool_rebuilds = getattr(self.evaluator,
                                                 "pool_rebuilds", 0)
        fault_dict = self.fault_stats.as_dict()
        if self.resumed_records:
            fault_dict["resumed_records"] = self.resumed_records
        if isinstance(self.evaluator, ChaosEvaluator):
            fault_dict["chaos"] = self.evaluator.stats()
        breaker_stats = getattr(self.store, "breaker_stats", None)
        if callable(breaker_stats):
            stats = breaker_stats()
            if stats.get("trips") or stats.get("rerouted_writes"):
                # a degraded store is a fault-domain event even when
                # every search completed: make the degradation visible
                fault_dict["store"] = stats
        if (self.fault_stats.total_faults or self.fault_stats.pool_rebuilds
                or self.resumed_records or "chaos" in fault_dict
                or "store" in fault_dict):
            self.trace.fault_stats = fault_dict

        if self.engine == "plan":
            engine_stats: dict = {"engine": self.engine}
            if self._plan_stats0 is not None:
                from ..tensor.engine import get_plan_cache
                engine_stats.update(
                    get_plan_cache().stats_since(self._plan_stats0))
            self.trace.engine_stats = engine_stats

        gate = getattr(self.strategy, "gate", None)
        if gate is not None:
            self.trace.static_stats = gate.stats.as_dict()
        self._finalized = self.trace
        return self.trace


def run_search(problem, strategy, num_candidates: int, *,
               scheme: str = "baseline", store=None, evaluator=None,
               provider_policy="parent", seed: int = 0,
               static_gate=None, zero_cost=None,
               name: Optional[str] = None,
               transfer_backend="checkpoint",
               cache=None, prefetch: bool = False, async_io=False,
               retry: Optional[RetryPolicy] = None,
               task_timeout: Optional[float] = None,
               journal=None, resume=None,
               engine: str = "eager") -> Trace:
    """Run one NAS estimation phase; returns the completed :class:`Trace`.

    The thin drive-to-completion wrapper over :class:`SearchDriver`
    (construct, ``step()`` until done, ``finalize()``), with the exact
    historical contract.

    ``static_gate`` enables pre-flight static screening: pass ``True``
    to construct a :class:`repro.analysis.PreflightGate` over the
    problem's space, or pass a configured gate instance.  The gate is
    attached to the strategy (unless it already has one) so every
    proposal is shape/dtype-checked before an evaluator sees it; its
    rejection stats land in ``trace.static_stats``.

    ``zero_cost`` upgrades the gate to the two-tier admission cascade
    (:class:`repro.analysis.ZeroCostGate`): static analysis first, then
    an init-time proxy score with quantile admission, so partial
    training is spent only on candidates the proxy does not rank at the
    bottom.  Pass ``True`` (defaults: grad-norm scorer, bottom 30%
    rejected), a scorer name (``"gradnorm"`` / ``"synflow"`` /
    ``"ntk"``), a kwargs dict for :class:`ZeroCostGate`, or a
    configured gate.  ``zero_cost`` subsumes ``static_gate``; per-tier
    counters (``static_rejected`` / ``proxy_rejected`` /
    ``proxy_seconds``) land in ``trace.static_stats``.

    ``cache`` / ``prefetch`` / ``async_io`` select the checkpoint I/O
    fast path (module docstring); all default to the
    fully synchronous paper configuration.  Fast-path runs produce
    semantically identical traces (same scores, same transfer stats) —
    only the ``io_blocked``/``io_hidden`` split changes.

    ``transfer_backend`` selects how the provider's training signal
    reaches the candidate.  ``"checkpoint"`` (default) is the paper's
    copy path: load the provider checkpoint, selectively copy matched
    tensors, save the candidate's own checkpoint.  ``"supernet"`` is the
    zero-copy path (DESIGN.md "Supernet weight entanglement"): one
    entangled parameter store per search space, candidates train through
    leading-corner views of shared superweights, and "transfer" is view
    re-binding — no store is required, per-transfer blocked I/O is ~0,
    and ``copied_bytes`` is 0 by construction.  A :class:`SuperNet` or
    configured :class:`SupernetTransferBackend` may be passed to share a
    store across runs.  Supernet runs need an in-process evaluator
    (serial or thread pool — process-pool workers could never write
    their view updates back) and a transfer scheme (``"lp"``/``"lcs"``,
    which still picks the provider and the match).  The checkpoint I/O
    knobs (``prefetch`` / ``async_io``) are inert no-ops
    under supernet; a user-supplied ``cache`` is only used to publish
    candidates' live views for inspection (zero byte budget,
    ``shared=True`` entries).  ``resume=`` replays recorded scores but
    the store itself restarts cold — weights are views, never
    serialized.

    ``retry`` / ``task_timeout`` / ``journal`` / ``resume`` select the
    fault-tolerance layer (module docstring).  Containment is always
    on — a crashing worker yields a failed record, never a crashed
    search; ``retry`` additionally resubmits contained faults
    (``RetryPolicy(max_attempts=1)`` ≡ no retries, the default).
    ``resume`` replays a :class:`TraceJournal` written by ``journal=``
    (passing only ``resume=`` keeps journaling to the same path).

    ``engine`` selects the training-step executor for every evaluation:
    ``"eager"`` (the default interpreter) or ``"plan"`` — compiled
    :class:`repro.tensor.engine.StepPlan` schedules checked out of the
    per-process :class:`~repro.tensor.engine.PlanCache`, bit-identical
    scores and traces, substantially faster steps.  The plan-cache
    counts accrued during the run land in ``trace.engine_stats`` (for a
    process pool only the engine name is recorded — worker caches are
    per-process).  The cache is shared by every search in the process,
    so the counts of concurrently running searches overlap.
    """
    driver = SearchDriver(
        problem, strategy, num_candidates, scheme=scheme, store=store,
        evaluator=evaluator, provider_policy=provider_policy, seed=seed,
        static_gate=static_gate, zero_cost=zero_cost, name=name,
        transfer_backend=transfer_backend, cache=cache, prefetch=prefetch,
        async_io=async_io, retry=retry,
        task_timeout=task_timeout, journal=journal, resume=resume,
        engine=engine,
    )
    try:
        while not driver.done:
            driver.step()
    finally:
        driver.close()
    return driver.finalize()
