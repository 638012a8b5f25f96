"""The NAS scheduler loop (paper Fig. 6, steps 1-5).

``run_search`` wires a strategy to an evaluator and a checkpoint store:

1. ask the strategy for a candidate,
2. pick its weight provider (parent by default; pluggable policy),
3. load the provider's checkpoint and transfer selectively (LP/LCS),
4. train/estimate the candidate on an evaluator worker,
5. checkpoint its weights and tell the strategy the score.

``scheme`` selects the paper's three configurations: ``"baseline"``
(cold start, **no checkpointing at all** — see DESIGN.md), ``"lp"`` and
``"lcs"``.  Timestamps land in the returned :class:`Trace`, read on the
evaluator's ``clock`` (DESIGN.md "One clock"): wall time on real
workers, virtual time on a :class:`repro.cluster.SimulatedCluster`,
which is how the figures' simulated searches run this same loop.  The
driver reads no clock of its own.

Re-entrant driver (DESIGN.md "Service architecture"): the loop itself
lives in :class:`SearchDriver` — one ``step()`` submits what fits and
consumes one completion, so a single search can be advanced
incrementally and many searches can be multiplexed onto one shared
evaluator fleet by an outer scheduler (:class:`repro.service
.SearchService`).  ``run_search`` is the thin drive-to-completion
wrapper and keeps its historical contract exactly.

Checkpoint I/O (DESIGN.md "Checkpoint I/O pipeline"), the loop's
largest serial bottleneck, has one path.  Saves are write-behind: a
record is told to the strategy at completion, but journaled and
handed to ``on_record`` only once its save has landed, in completion
order, and :meth:`SearchDriver.finalize` drains the rest.  Providers
are read through an LRU capped at the strategy's ``population_size``
(no population, no cache) and filled only by disk reads, so a
provider's checkpoint is CRC-checked before its first child inherits
from it.  A load first waits for the provider's own save if it is
still running, so a save that fails is a cold start whatever the
writer thread's timing.  Each save's own future is the only place its
error surfaces: the driver books it when the record lands.

I/O accounting stays honest: ``record.overhead`` remains the *total*
checkpoint I/O seconds (so Fig. 11 and the simulator calibration are
unchanged), split into ``record.io_blocked`` (actually stalled the
ask→submit→tell loop) and ``record.io_hidden`` (absorbed by the
write-behind writer).

Fault tolerance (DESIGN.md "Fault tolerance"): worker exceptions never
crash the loop.  An evaluator hands back a
:class:`repro.cluster.resilience.TaskFailure` for a raising task; the
scheduler books the fault by taxonomy kind, retries it under the
``retry`` policy (bounded, backoff with a *dedicated* jitter rng so the
provider-policy rng stream is untouched), and exhausted retries land as
failed records on the ``FAILURE_SCORE`` path — identical to how an
unbuildable architecture has always been handled.  A backoff never
sleeps inside ``complete``: the retry waits in a per-driver heap of due
times, still counted in flight, and the driving loop resubmits it once
it is due — so a multiplexing service keeps every other session
running meanwhile.  A corrupt provider checkpoint is quarantined into the store's ``.quarantine/``
directory and the candidate cold-starts.  ``journal=`` appends every
completed record durably to a jsonl :class:`TraceJournal` as it lands,
and ``resume=`` replays such a journal — restoring strategy state via
:meth:`Strategy.restore` — so a killed run continues from its last
durable candidate with already-completed records bit-identical.  All
fault counters serialize into ``trace.fault_stats``.  A candidate save
that raises (a full or failing disk) is booked as one ``ckpt_write``
fault, named in ``trace.io_stats["writer_errors"]``, and the search
continues — the candidate simply has no checkpoint to provide from.
"""

from __future__ import annotations

import contextlib
import functools
import heapq
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from ..checkpoint import (
    AsyncCheckpointWriter,
    CorruptCheckpointError,
    WeightCache,
    payload_nbytes,
)
from ..nas.estimation import FAILURE_SCORE, estimate_candidate
from ..transfer.policy import get_policy
from .evaluator import SerialEvaluator
from .resilience import (
    ChaosEvaluator,
    FaultStats,
    RetryPolicy,
    TaskFailure,
    TraceJournal,
    WaitTimeout,
)
from .trace import Trace, TraceRecord, checkpoint_key

SCHEMES = ("baseline", "lp", "lcs")


@dataclass
class _Pending:
    """One in-flight candidate: everything needed to finalize it — or
    resubmit the very same task when its worker crashes."""

    record: TraceRecord
    task: Callable[[], object]
    attempt: int = 1


class SearchDriver:
    """Re-entrant, step-wise form of the ask→submit→tell loop.

    One instance owns the full per-search state — strategy, provider
    policy, checkpoint plumbing, fault containment, journal — but never
    loops on its own.  Three drive surfaces:

    - :meth:`step` — submit-what-fits + consume-one-completion; the
      single-search drive (``run_search`` calls it until :attr:`done`).
    - :meth:`submit_next` / :meth:`complete` /
      :meth:`dispatch_due_retries` — the *multiplexed* drive: an outer
      scheduler (``repro.service.SearchService``) decides when this
      search may submit, routes each completion from a **shared**
      evaluator to the driver that :meth:`owns` its ticket, and
      resubmits retries once :attr:`next_retry_due` passes.  The driver
      is the only record of its tickets; ``complete`` ignores tickets
      it does not own, so routing mistakes are inert.
    - :meth:`finalize` — drain barrier + stats attachment; returns the
      :class:`Trace`.  Callable mid-run (a drained or failed session's
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
                 name: Optional[str] = None,
                 retry: Optional[RetryPolicy] = None,
                 journal=None, resume=None,
                 key_prefix: str = "",
                 on_record: Optional[Callable[[TraceRecord], None]] = None):
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}, expected {SCHEMES}")
        self.problem = problem
        self.strategy = strategy
        self.num_candidates = int(num_candidates)
        self.scheme = scheme
        self.store = store
        self.seed = seed
        self.key_prefix = key_prefix
        #: called with every completed record after it is journaled and
        #: told to the strategy — the service's per-record callback
        self.on_record = on_record

        self.transfers = scheme != "baseline"
        if self.transfers and store is None:
            raise ValueError(f"scheme {scheme!r} needs a checkpoint store")
        self.retry = retry or RetryPolicy(max_attempts=1)
        self.policy = get_policy(provider_policy, space=problem.space)
        self.evaluator = evaluator or SerialEvaluator()
        #: where every time this search uses is read
        self.clock = self.evaluator.clock

        # -- checkpoint I/O: write-behind saves, providers read through a
        # cache of the population --
        self.writer = AsyncCheckpointWriter(store) if self.transfers else None
        population = getattr(strategy, "population_size", None)
        self.weight_cache = WeightCache(max_entries=population) \
            if self.transfers and population else None
        #: write-behind saves whose records are still held, by key
        self._saves: dict[str, Future] = {}
        #: every failed save as ``"key: exc!r"``, in landing order
        self._writer_errors: list[str] = []
        #: completed records not yet journaled, in completion order: a
        #: record waits here until its write-behind save has finished
        self._held: deque[TraceRecord] = deque()
        self._xfer_copied_bytes = 0

        self.rng = np.random.default_rng(seed)
        # jitter draws come from a dedicated stream so retries never
        # perturb provider selection — a chaos run with jitter still
        # replays the same providers (and scores) as a clean run
        self._retry_rng = np.random.default_rng((seed, 0x5EED))
        self.fault_stats = FaultStats()
        self.trace = Trace(name=name or f"{problem.name}-{scheme}",
                           scheme=scheme)
        self._t0 = self.clock.now()
        self._pending: dict[int, _Pending] = {}   # ticket -> in-flight
        #: retries backing off: (due time, candidate id, pending) —
        #: in flight too, but holding no ticket until they are due
        self._backoff: list[tuple[float, int, _Pending]] = []
        #: id of the next proposal; a resumed journal may have gaps (a
        #: crash while an earlier candidate was in flight), so this is
        #: kept apart from the counts and never reuses a recorded id
        self._next_id = 0
        self.completed = 0
        self._max_in_flight = getattr(self.evaluator, "num_workers", 1)
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
                self._next_id = max(self._next_id, r.candidate_id + 1)
            self.resumed_records = len(replayed)
        if journal_path is not None:
            self._journal = TraceJournal(journal_path, name=self.trace.name,
                                         scheme=scheme,
                                         append=self.resumed_records > 0)

    # -- progress surface ------------------------------------------------
    @property
    def submitted(self) -> int:
        """Candidates proposed so far: records landed plus candidates in
        flight, so ``submitted == completed + in_flight`` by definition."""
        return self.completed + self.in_flight

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
        """Candidates this driver is waiting on: its own tickets (not
        the fleet's) plus retries still backing off."""
        return len(self._pending) + len(self._backoff)

    def pending_tickets(self) -> list[int]:
        """The tickets currently owned by this driver: what a
        multiplexer counts against this search's fleet share."""
        return list(self._pending)

    def owns(self, ticket: int) -> bool:
        """Whether ``ticket`` is one of this driver's in-flight tickets
        (how a multiplexer routes a completion from a shared fleet)."""
        return ticket in self._pending

    @property
    def next_retry_due(self) -> Optional[float]:
        """When the earliest backing-off retry is due (on the clock),
        None when no retry is backing off."""
        return self._backoff[0][0] if self._backoff else None

    def _wait_budget(self) -> Optional[float]:
        """Seconds until the next retry falls due, None when no retry is
        backing off."""
        due = self.next_retry_due
        return None if due is None else max(0.0, due - self.clock.now())

    def _key(self, candidate_id: int) -> str:
        return self.key_prefix + checkpoint_key(candidate_id)

    # -- provider plumbing ----------------------------------------------
    def _load_provider(self, key: str, record: TraceRecord):
        """Provider weights via cache → disk; returns None when the
        checkpoint does not exist anywhere — its save failed, or it
        turned out corrupt, in which case it is quarantined — and the
        candidate cold-starts.  The provider's own write-behind save is
        waited for first when it has not landed yet, so a child never
        inherits from a save that fails later: what the search decides
        does not hang on the writer thread's timing.  Only weights read
        back from disk enter the cache, so a provider's first child
        always reads its checkpoint and checks its CRC."""
        store, weight_cache, clock = self.store, self.weight_cache, self.clock
        save = self._saves.get(key)
        io0 = clock.now()
        nbytes = None                      # what was read, if anything
        try:
            if save is not None and save.exception() is not None:
                return None        # a failed save: booked when it lands
            if weight_cache is not None:
                weights = weight_cache.get(key)
                if weights is not None:
                    record.cache_hit = True
                    nbytes = payload_nbytes(weights)
                    return weights
            weights = store.load(key)
            nbytes = payload_nbytes(weights)
        except CorruptCheckpointError:
            if store.exists(key):          # a payload is charged as read
                nbytes = store.nbytes(key)
            self.fault_stats.record_fault("corrupt_checkpoint")
            self.fault_stats.quarantined += 1
            store.quarantine(key)
            return None                    # cold-start fallback
        except FileNotFoundError:
            return None                    # never saved, or save failed
        finally:
            record.add_io_blocked(
                clock.io_seconds(clock.now() - io0, nbytes))
        if weight_cache is not None:
            weight_cache.put(key, weights)
        return weights

    # -- submit side -----------------------------------------------------
    def submit_next(self) -> None:
        """Ask the strategy for one proposal and dispatch its evaluation
        task (the re-entrant half of the old inner submit loop).  The
        caller is responsible for capacity — this method always submits."""
        proposal = self.strategy.ask()
        candidate_id = self._next_id
        self._next_id += 1
        record = TraceRecord(
            candidate_id=candidate_id, arch_seq=tuple(proposal.arch_seq),
            score=float("nan"), scheme=self.scheme,
            parent_id=proposal.parent_id,
            start_time=self.clock.next_start() - self._t0,
        )
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
            estimate_candidate, self.problem, record.arch_seq,
            seed=self.seed + candidate_id, provider_weights=provider_weights,
            matcher=self.scheme if self.transfers else "lcs",
            keep_weights=self.transfers,
        )
        self._dispatch(_Pending(record, task))

    def _dispatch(self, pend: _Pending) -> None:
        """(Re)submit a pending candidate's task to the evaluator."""
        self._pending[self.evaluator.submit(pend.task)] = pend

    # -- completion side -------------------------------------------------
    def _finalize_record(self, pend: _Pending, record_update) -> None:
        """Book one completed candidate (success or exhausted failure):
        tell + append now, so write-behind never changes what the search
        decides; journal + ``on_record`` once it lands (:meth:`land`)."""
        record = pend.record
        record.end_time = self.clock.now() - self._t0
        record.attempts = pend.attempt
        record_update(record)
        self.strategy.tell(record.candidate_id, record.arch_seq,
                           record.score)
        self.trace.append(record)
        self.completed += 1
        self._held.append(record)
        self.land()

    def land(self, wait: bool = False) -> None:
        """Journal, then hand to ``on_record``, every held record whose
        write-behind save has finished, oldest first; stop at the first
        whose save is still running (``wait=True``: wait for it).  So a
        journaled record's checkpoint is on disk — or its save failed,
        booked here as one ``ckpt_write`` fault and one
        ``writer_errors`` entry — and a resume never transfers from a
        provider the killed run had not saved yet.  An
        ``on_record`` that raises does not hold back the records behind
        it: they land too, and the first error is raised afterwards."""
        error: Optional[Exception] = None
        while self._held:
            record = self._held[0]
            key = self._key(record.candidate_id)
            save = self._saves.get(key)
            if save is not None:
                if not (wait or save.done()):
                    break
                del self._saves[key]
                try:
                    info, seconds = save.result()
                except Exception as exc:
                    # a failed save costs the checkpoint, not the search
                    self.fault_stats.record_fault("ckpt_write")
                    self._writer_errors.append(f"{key}: {exc!r}")
                else:
                    record.ckpt_bytes = info.nbytes
                    record.add_io_hidden(self.clock.io_seconds(seconds))
            self._held.popleft()
            if self._journal is not None:
                self._journal.append(record)
            if self.on_record is not None:
                try:
                    self.on_record(record)
                except Exception as exc:
                    error = error or exc
        if error is not None:
            raise error

    def _contain_failure(self, pend: _Pending,
                         failure: TaskFailure) -> None:
        """The containment decision: resubmit under the retry policy or
        land the candidate as a failed record on the FAILURE_SCORE path."""
        self.fault_stats.record_fault(failure.kind)
        if self.retry.should_retry(pend.attempt):
            delay = self.retry.delay(pend.attempt, self._retry_rng)
            pend.attempt += 1
            self.fault_stats.retries += 1
            if delay > 0.0:
                # back off without blocking: the retry waits in the heap
                # and the caller's loop dispatches it once it is due
                self.fault_stats.backoff_seconds += delay
                heapq.heappush(self._backoff,
                               (self.clock.now() + delay,
                                pend.record.candidate_id, pend))
            else:
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
                self._xfer_copied_bytes += \
                    result.transfer_stats.copied_bytes
            if self.writer is not None and result.ok \
                    and result.weights is not None:
                key = self._key(record.candidate_id)
                meta = {"arch_seq": list(record.arch_seq),
                        "score": record.score, "scheme": self.scheme}
                # write-behind: only the snapshot + enqueue blocks here;
                # the payload write lands in io_hidden once the record
                # lands, and a failed one costs the checkpoint, not the
                # search (land() books it; children cold-start)
                clock = self.clock
                io0 = clock.now()
                self._saves[key] = self.writer.save(key, result.weights,
                                                    meta=meta)
                record.add_io_blocked(clock.io_seconds(
                    clock.now() - io0, payload_nbytes(result.weights),
                    write=True))
        self._finalize_record(pend, apply)

    def dispatch_due_retries(self) -> None:
        """Resubmit every backing-off retry whose delay has run out."""
        now = self.clock.now()
        while self._backoff and self._backoff[0][0] <= now:
            self._dispatch(heapq.heappop(self._backoff)[2])

    def complete(self, ticket: int, result) -> bool:
        """Consume one completion routed to this driver.  Returns True
        when a record landed (False: a retry was scheduled, or the
        ticket is not ours — routed to the wrong session).

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
            # corrupt result (a flaky node returned garbage, or training
            # diverged): contained, retried like any other fault
            self._contain_failure(pend, TaskFailure(
                Exception(f"corrupt result: non-finite score "
                          f"{result.score!r}"), kind="corrupt_result"))
            return self.completed > before
        self._complete_success(pend, result)
        return True

    def _wait_and_complete(self) -> None:
        """Wait for the next completion and consume it.  May complete
        zero records (a retry scheduled, or one falling due) — the outer
        loop re-checks."""
        try:
            ticket, result = self.evaluator.wait_any(
                timeout=self._wait_budget())
        except WaitTimeout:
            self.dispatch_due_retries()
            return
        self.complete(ticket, result)

    def step(self) -> None:
        """One re-entrant turn of the loop: submit what fits, then wait
        for (and consume) one completion.  Drive to completion with
        ``while not driver.done: driver.step()``.  A backing-off retry
        keeps its worker slot, so serial and one-worker runs replay the
        same records whatever the delays."""
        self.land()
        self.dispatch_due_retries()
        while (self.wants_submit
               and self.evaluator.in_flight + len(self._backoff)
               < self._max_in_flight):
            self.submit_next()
        if not self._pending and self._backoff:
            # only backoffs left: nothing can land before the next is due
            self.clock.sleep(self._wait_budget())
            self.dispatch_due_retries()
        self._wait_and_complete()

    # -- teardown --------------------------------------------------------
    def close(self) -> None:
        """Land every held record — waiting for its write-behind save —
        then close the journal.  Idempotent; called by :meth:`finalize`,
        which also closes the write-behind writer."""
        try:
            self.land(wait=True)
        finally:
            if self._journal is not None:
                self._journal.close()

    def finalize(self) -> Trace:
        """Drain barrier + stats attachment; returns the trace.  Safe to
        call mid-run (a drained or failed session finalizes its
        partial trace) and idempotent.  An error from landing the last
        records is raised only after every stat is attached."""
        if self._finalized is not None:
            return self._finalized

        # -- drain barrier: every write-behind save has finished, its
        # record landed and journaled, before the journal closes -------
        io_stats: dict = {}
        writer = self.writer
        drain0 = self.clock.now()
        error: Optional[Exception] = None
        try:
            self.close()
        except Exception as exc:
            error = exc
        finally:
            if writer is not None:
                io_stats["drain_seconds"] = self.clock.now() - drain0
                if self._writer_errors:
                    io_stats["writer_errors"] = list(self._writer_errors)
                writer.close()
        if self.weight_cache is not None:
            # a finished driver may be kept for polling; its providers'
            # weights are not needed any more
            io_stats["cache"] = self.weight_cache.stats()
            self.weight_cache = None
        if io_stats:
            self.trace.io_stats = io_stats

        # -- transfer accounting: what selective transfer copied -------
        if self.transfers:
            self.trace.transfer_stats = {
                "copied_bytes": int(self._xfer_copied_bytes)}

        # -- fault accounting: only attached when something actually
        # went wrong (or chaos was injected / a run was resumed), so
        # clean paper runs keep fault_stats is None ---------------------
        fault_dict = self.fault_stats.as_dict()
        if self.resumed_records:
            fault_dict["resumed_records"] = self.resumed_records
        if isinstance(self.evaluator, ChaosEvaluator):
            fault_dict["chaos"] = self.evaluator.stats()
        if (self.fault_stats.total_faults or self.resumed_records
                or "chaos" in fault_dict):
            self.trace.fault_stats = fault_dict

        self._finalized = self.trace
        if error is not None:
            raise error
        return self.trace


def run_search(problem, strategy, num_candidates: int, *,
               scheme: str = "baseline", store=None, evaluator=None,
               provider_policy="parent", seed: int = 0,
               name: Optional[str] = None,
               retry: Optional[RetryPolicy] = None,
               journal=None, resume=None) -> Trace:
    """Run one NAS estimation phase; returns the completed :class:`Trace`.

    The thin drive-to-completion wrapper over :class:`SearchDriver`
    (construct, ``step()`` until done, ``finalize()``), with the exact
    historical contract.

    A store-backed search saves write-behind and reads providers
    through a population-sized cache (module docstring).  It makes the
    decisions of synchronous saves and uncached loads (same scores,
    providers and transfer stats), also when saves fail or the store
    corrupts what it writes; the ``io_blocked``/``io_hidden`` split
    differs.  A provider's first child reads it from disk; a
    checkpoint corrupted on disk after that read is not re-checked
    while it stays cached.

    ``retry`` / ``journal`` / ``resume`` select the
    fault-tolerance layer (module docstring).  Containment is always
    on — a crashing worker yields a failed record, never a crashed
    search; ``retry`` additionally resubmits contained faults
    (``RetryPolicy(max_attempts=1)`` ≡ no retries, the default).
    ``resume`` replays a :class:`TraceJournal` written by ``journal=``
    (passing only ``resume=`` keeps journaling to the same path).
    """
    driver = SearchDriver(
        problem, strategy, num_candidates, scheme=scheme, store=store,
        evaluator=evaluator, provider_policy=provider_policy, seed=seed,
        name=name, retry=retry, journal=journal, resume=resume,
    )
    try:
        while not driver.done:
            driver.step()
    except BaseException:
        # the drain barrier also closes the write-behind writer, so
        # a failed search leaves no thread still saving into the store;
        # the search's own error is the one that propagates
        with contextlib.suppress(Exception):
            driver.finalize()
        raise
    return driver.finalize()
