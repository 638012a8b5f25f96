"""The multi-tenant search service (DESIGN.md "Service architecture").

:class:`SearchService` turns the library's one-search ``run_search``
into a long-lived service: tenants :meth:`~SearchService.submit`
sessions, the service multiplexes every admitted session's candidate
evaluations onto **one shared evaluator fleet** while the caller runs
:meth:`~SearchService.drive`, and each session's results come back
through its ``on_record`` callback, :meth:`~SearchService.poll` and
:meth:`~SearchService.result`.

The building block is the re-entrant
:class:`repro.cluster.scheduler.SearchDriver`: the service never calls
``driver.step()`` — it calls ``driver.submit_next()`` when the fair-share
scheduler grants the session a slot, waits on the *shared* evaluator,
and routes each completion to the running session whose driver
:meth:`~repro.cluster.scheduler.SearchDriver.owns` its ticket, dropping
one that no running session owns.  The drivers are the only record of
which tickets a session holds: each tenant's in-flight count is summed
from them, never kept alongside.  Whether ``drive`` must still wait is
the fleet's own ``in_flight``, so a failed session's last completions
are drained too.

Fault isolation, by construction:

- **State**: every rng stream, fault counter, journal and retry budget
  is ``SearchDriver`` instance state — chaos injected into tenant A's
  sessions lands in A's ``fault_stats`` and nowhere else.
- **Checkpoints**: each session's keys are namespaced with
  ``"<session_id>--"`` inside the shared store, so two tenants'
  ``cand_000003`` never collide and a quarantine decision only ever
  removes the faulting session's checkpoint.
- **Chaos**: per-session fault injection wraps the shared evaluator in
  a session-local :class:`~repro.cluster.resilience.ChaosEvaluator` —
  the fault draw happens on the session's own seeded rng at submit
  time, so a clean tenant interleaved with chaotic ones produces the
  same records as running alone.
- **Retry backoff**: a retrying session never sleeps on the drive
  thread.  Its retry waits in the driver's due-time heap, and the
  session proposes nothing new meanwhile, while the fleet keeps
  serving every other session; the drive loop resubmits it once due
  (draining included), bounds each ``wait_any`` by the earliest due
  retry, and sleeps only when nothing is running.
- **Write-behind saves**: every store-backed session's saves run on
  the one process-wide checkpoint writer thread, one at a time in
  FIFO order, so a hung ``store.save`` delays the other sessions'
  saves — as it already stalls them on the store they all share.
  Counters, errors and ``flush`` stay per session.  A record reaches
  the journal and the session's ``on_record`` only once its save has
  landed; each drive turn lands those that have.
- **Crashes**: a driver that raises out of containment (a buggy
  strategy, a tenant's ``on_record`` that raises) marks *that session*
  FAILED and every other session keeps running.  Its tickets still in
  flight complete on the fleet, and routing drops them: no running
  session owns them.
- **Teardown**: every session ends through one path — its driver
  finalizes (landing held records, closing its journal) under
  containment, so a session whose last records raise on landing ends
  with the error in its status, failed or interrupted alike, and never
  takes the drive loop down.

Admission control is reject-with-backpressure: a full session queue or
an over-quota tenant gets an immediate :class:`AdmissionError` — the
service never buffers unboundedly and never silently drops.

Graceful shutdown: :meth:`~SearchService.request_drain` — from an
``on_record`` callback or from another thread while one drives — stops
new submissions, lets every in-flight evaluation land (each completed
record is journaled durably by its session's ``TraceJournal`` once its
checkpoint is on disk), then marks unfinished sessions INTERRUPTED and
returns from ``drive``.  A later :meth:`~SearchService.recover` replays
each interrupted session's journal and resumes it — completed records
bit-identical, the search continuing from its last durable candidate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from ..analysis.lockcheck import make_lock
from ..cluster.evaluator import SerialEvaluator
from ..cluster.resilience import ChaosEvaluator, WaitTimeout
from ..cluster.scheduler import SearchDriver
from ..cluster.trace import Trace, TraceRecord

__all__ = [
    "AdmissionError",
    "SearchService",
    "SessionHandle",
    "SessionSpec",
    "SessionState",
    "SessionStatus",
]

#: Lock-discipline assertion (lint R004/R007): the session table, the
#: admission queue, the tenant rotor and the drain flag are shared
#: between the drive thread and tenant-facing API calls.  Every write
#: must hold ``self._lock``, a leaf like every lock in the repo:
#: driver/evaluator/store calls happen outside it.  Lint checks the
#: set; those calls live in other modules, so only the runtime
#: sanitizer checks that they stay outside the lock.
_GUARDED_ATTRS = ("_sessions", "_queued", "_tenant_rotor", "_draining",
                  "_driving", "_seq")

#: ``SessionSpec.extra_driver_kwargs`` keys checked but never forwarded
_KEPT_DRIVER_NAMES = frozenset({"async_io", "transfer_backend",
                                "zero_cost"})


class AdmissionError(Exception):
    """The service rejected a submission — queue full or tenant over
    quota.  Backpressure, not buffering: the caller decides whether to
    retry later, shed load, or escalate."""


class SessionState:
    """Session lifecycle labels (plain strings so they serialize)."""

    QUEUED = "queued"            # admitted, waiting for an active slot
    RUNNING = "running"          # being multiplexed onto the fleet
    DONE = "done"                # all candidates landed
    FAILED = "failed"            # driver raised out of containment
    INTERRUPTED = "interrupted"  # drained mid-run; journal resumable

    #: states a session can still make progress from
    ACTIVE = frozenset({QUEUED, RUNNING})
    #: terminal states (the manifest's final word)
    TERMINAL = frozenset({DONE, FAILED, INTERRUPTED})


@dataclass
class SessionSpec:
    """Everything one search session needs.  ``problem`` and
    ``strategy`` are live objects (a fresh strategy per spec — the
    service hands it straight to the session's driver); the scalar
    fields are mirrored into the on-disk manifest so
    :meth:`SearchService.recover` can match a re-supplied spec to an
    interrupted session."""

    problem: object
    strategy: object
    num_candidates: int
    tenant: str = "default"
    name: Optional[str] = None
    scheme: str = "lcs"
    seed: int = 0
    provider_policy: object = "parent"
    retry: object = None
    #: ``cache``, ``prefetch`` and an ``"async_io"`` driver kwarg are
    #: checked to be bools and never forwarded (every session has the
    #: one I/O path); they go once svc-mix stops setting them (ROADMAP.md
    #: item 1)
    cache: bool = False
    prefetch: bool = False
    #: ``"eager"`` or ``"plan"``, and never forwarded: every fit trains
    #: eagerly, which a plan step matched bit for bit, so both decide
    #: the same search.  It goes once the svc-mix benchmark stops
    #: setting it (ROADMAP.md item 1)
    engine: str = "eager"
    #: per-session chaos: kwargs for ChaosEvaluator (crash_prob /
    #: seed) — faults drawn from this session's own rng, invisible to
    #: every other session
    chaos: Optional[dict] = None
    #: optional per-record callback, on the drive thread, as each
    #: record lands (after its journal append)
    on_record: Optional[Callable[[TraceRecord], None]] = None
    #: forwarded to the session's ``SearchDriver``, except the kept
    #: names in ``_KEPT_DRIVER_NAMES``, checked and dropped:
    #: ``"async_io"`` (see ``cache``), ``"transfer_backend"``
    #: (``"checkpoint"`` or ``"supernet"``; the supernet backend is
    #: retired, so every session transfers through checkpoints) and
    #: ``"zero_cost"`` (a bool; the zero-cost gate is retired, so no
    #: session screens candidates before training them).
    #: All three go once svc-mix stops setting them (ROADMAP.md item 1
    #: step 1)
    extra_driver_kwargs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.engine not in ("eager", "plan"):
            raise ValueError(f"unknown engine {self.engine!r}, expected "
                             f"'eager' or 'plan'")
        for name, value in (("cache", self.cache),
                            ("prefetch", self.prefetch),
                            ("async_io", self.extra_driver_kwargs.get(
                                "async_io", False)),
                            ("zero_cost", self.extra_driver_kwargs.get(
                                "zero_cost", False))):
            if not isinstance(value, bool):
                raise TypeError(f"{name} must be a bool, got {value!r}")
        backend = self.extra_driver_kwargs.get("transfer_backend",
                                               "checkpoint")
        if backend not in ("checkpoint", "supernet"):
            raise ValueError(f"unknown transfer_backend {backend!r}, "
                             f"expected 'checkpoint' or 'supernet'")


@dataclass(frozen=True)
class SessionStatus:
    """Point-in-time snapshot returned by :meth:`SearchService.poll`."""

    session_id: str
    tenant: str
    state: str
    submitted: int
    completed: int
    num_candidates: int
    in_flight: int
    error: Optional[str] = None


class SessionHandle:
    """What :meth:`SearchService.submit` returns — the tenant's end of
    a session.  Thin: just the id plus convenience forwarding."""

    def __init__(self, service: "SearchService", session_id: str):
        self._service = service
        self.session_id = session_id

    def poll(self) -> SessionStatus:
        return self._service.poll(self.session_id)

    def result(self) -> Trace:
        return self._service.result(self.session_id)


class _Session:
    """Service-internal per-session state: the driver plus lifecycle
    bookkeeping.  Its state transitions happen on the drive thread
    only."""

    def __init__(self, session_id: str, spec: SessionSpec,
                 driver: SearchDriver):
        self.session_id = session_id
        self.spec = spec
        self.driver = driver
        self.state = SessionState.QUEUED
        self.error: Optional[str] = None
        self.trace: Optional[Trace] = None


def _tickets_by_tenant(running: list[_Session]) -> dict[str, int]:
    """Fleet tickets held per tenant, summed from the given running
    sessions' drivers — the only record of what is in flight.  A retry
    backing off holds no ticket, so it takes no fleet slot.  Callers
    snapshot the sessions under ``SearchService._lock`` and count
    outside it."""
    by_tenant: dict[str, int] = {}
    for s in running:
        n = len(s.driver.pending_tickets())
        if n:
            by_tenant[s.spec.tenant] = by_tenant.get(s.spec.tenant, 0) + n
    return by_tenant


class SearchService:
    """Fault-isolated multi-tenant NAS search service.

    Parameters
    ----------
    evaluator:
        The shared fleet every session's evaluations run on.  Defaults
        to a :class:`SerialEvaluator`; any evaluator exposing
        ``submit`` / ``wait_any`` / ``in_flight`` / ``num_workers`` /
        ``clock`` works.  Retry due times, waits and sleeps are read
        on its ``clock``, the one its sessions' drivers stamp with.
    store:
        Shared :class:`~repro.checkpoint.CheckpointStore`; sessions
        namespace their keys with ``"<session_id>--"``.  ``None`` is
        fine when every session runs the baseline scheme.
    journal_dir:
        Where per-session journals (``<sid>.jsonl``) and manifests
        (``<sid>.manifest.json``) live.  Required for drain/recover.
    max_active_sessions:
        Fair-share width: how many sessions are multiplexed at once;
        admitted sessions beyond this wait QUEUED (FIFO).
    max_pending_sessions:
        Bound on the QUEUED backlog — the admission-control queue.  A
        submission past it raises :class:`AdmissionError`.
    tenant_max_sessions:
        Per-tenant bound on live (queued + running) sessions; exceeding
        it raises :class:`AdmissionError`.
    tenant_quota:
        Per-tenant cap on simultaneously in-flight *evaluations* — the
        fair-share knob that stops one tenant saturating the fleet.
    max_in_flight:
        Global in-flight evaluation cap (default: the evaluator's
        ``num_workers``).

    Every size must be at least 1: a zero quota or width admits
    sessions that ``drive`` could never run.
    """

    def __init__(self, *, evaluator=None, store=None, journal_dir=None,
                 max_active_sessions: int = 8,
                 max_pending_sessions: int = 64,
                 tenant_max_sessions: int = 16,
                 tenant_quota: int = 4,
                 max_in_flight: Optional[int] = None):
        self.evaluator = evaluator or SerialEvaluator()
        self.clock = self.evaluator.clock
        self.store = store
        self.journal_dir = Path(journal_dir) if journal_dir is not None \
            else None
        if self.journal_dir is not None:
            self.journal_dir.mkdir(parents=True, exist_ok=True)
        if max_in_flight is None:
            max_in_flight = getattr(self.evaluator, "num_workers", 1)
        for name, value in (("max_active_sessions", max_active_sessions),
                            ("max_pending_sessions", max_pending_sessions),
                            ("tenant_max_sessions", tenant_max_sessions),
                            ("tenant_quota", tenant_quota),
                            ("max_in_flight", max_in_flight)):
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        self.max_active_sessions = int(max_active_sessions)
        self.max_pending_sessions = int(max_pending_sessions)
        self.tenant_max_sessions = int(tenant_max_sessions)
        self.tenant_quota = int(tenant_quota)
        self.max_in_flight = int(max_in_flight)

        self._lock = make_lock("SearchService._lock")
        self._sessions: dict[str, _Session] = {}
        self._queued: list[str] = []            # admission FIFO
        self._draining = False
        self._driving = False
        self._seq = 0
        self._tenant_rotor = 0                  # drive-thread only

    # ------------------------------------------------------------------
    # admission (tenant-facing, any thread)
    # ------------------------------------------------------------------
    def submit(self, spec: SessionSpec, *, session_id: Optional[str] = None,
               resume=None, _force: bool = False) -> SessionHandle:
        """Admit one search session; returns its handle immediately.

        Raises :class:`AdmissionError` when the pending queue is full
        or the tenant is at its session quota — backpressure, never
        unbounded buffering.  ``resume`` replays a journal path
        (normally via :meth:`recover`, which fills it in)."""
        with self._lock:
            if self._draining:
                raise AdmissionError("service is draining")
            if not _force:
                live = [s for s in self._sessions.values()
                        if s.state in SessionState.ACTIVE]
                if len(self._queued) >= self.max_pending_sessions:
                    raise AdmissionError(
                        f"session queue full "
                        f"({self.max_pending_sessions} pending)")
                tenant_live = sum(1 for s in live
                                  if s.spec.tenant == spec.tenant)
                if tenant_live >= self.tenant_max_sessions:
                    raise AdmissionError(
                        f"tenant {spec.tenant!r} at its session quota "
                        f"({self.tenant_max_sessions})")
            if session_id is None:
                session_id = (f"{spec.tenant}.{spec.name or 'search'}"
                              f".{self._seq:04d}")
                self._seq += 1
            if session_id in self._sessions:
                raise AdmissionError(f"session {session_id!r} exists")
        session = self._build_session(session_id, spec, resume=resume)
        # the QUEUED manifest lands before the drive loop can see the
        # session: once published, _promote_queued writes the same file
        self._write_manifest(session)
        with self._lock:
            self._sessions[session_id] = session
            self._queued.append(session_id)
        return SessionHandle(self, session_id)

    def _build_session(self, session_id: str, spec: SessionSpec,
                       resume=None) -> _Session:
        evaluator = self.evaluator
        if spec.chaos:
            evaluator = ChaosEvaluator(self.evaluator, **spec.chaos)
        journal = None
        if self.journal_dir is not None:
            journal = self.journal_dir / f"{session_id}.jsonl"
        driver = SearchDriver(
            spec.problem, spec.strategy, spec.num_candidates,
            scheme=spec.scheme, store=self.store, evaluator=evaluator,
            provider_policy=spec.provider_policy, seed=spec.seed,
            name=f"{session_id}-{spec.scheme}",
            retry=spec.retry, journal=journal, resume=resume,
            key_prefix=f"{session_id}--",
            on_record=spec.on_record,
            **{k: v for k, v in spec.extra_driver_kwargs.items()
               if k not in _KEPT_DRIVER_NAMES},
        )
        return _Session(session_id, spec, driver)

    # ------------------------------------------------------------------
    # tenant-facing observation (any thread)
    # ------------------------------------------------------------------
    def _get(self, session_id: str) -> _Session:
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise KeyError(f"unknown session {session_id!r}")
        return session

    def poll(self, session_id: str) -> SessionStatus:
        s = self._get(session_id)
        return SessionStatus(
            session_id=s.session_id, tenant=s.spec.tenant, state=s.state,
            submitted=s.driver.submitted, completed=s.driver.completed,
            num_candidates=s.driver.num_candidates,
            in_flight=s.driver.in_flight, error=s.error,
        )

    def result(self, session_id: str) -> Trace:
        """The session's trace.  Terminal sessions only — a DONE
        session's full trace, or the partial trace of a failed or
        interrupted one."""
        s = self._get(session_id)
        if s.state not in SessionState.TERMINAL or s.trace is None:
            raise RuntimeError(f"session {session_id!r} is {s.state}; "
                               f"no result yet")
        return s.trace

    def stats(self) -> dict:
        """Service-level aggregate (fleet + admission view)."""
        with self._lock:
            sessions = list(self._sessions.values())
            queued = len(self._queued)
            draining = self._draining
        by_state: dict[str, int] = {}
        for s in sessions:
            by_state[s.state] = by_state.get(s.state, 0) + 1
        tenant_inflight = _tickets_by_tenant(
            [s for s in sessions if s.state == SessionState.RUNNING])
        return {
            "sessions": len(sessions),
            "by_state": by_state,
            "queued": queued,
            "in_flight": sum(tenant_inflight.values()),
            "tenant_inflight": tenant_inflight,
            "draining": draining,
        }

    # ------------------------------------------------------------------
    # the drive loop (one thread at a time: the caller's)
    # ------------------------------------------------------------------
    def drive(self) -> None:
        """Multiplex every admitted session to a terminal state (or
        until a drain is requested).  Synchronous: runs on the calling
        thread, while other threads may still submit, poll or drain."""
        with self._lock:
            if self._driving:
                raise RuntimeError("service is already being driven")
            self._driving = True
        try:
            while True:
                self._promote_queued()
                self._tend_running()
                self._finish_completed()
                if not self._is_draining():
                    self._submit_round()
                if self._outstanding():
                    self._wait_once()
                    continue
                budget = self._wait_budget()
                if budget is not None:
                    # nothing in flight but retries backing off
                    self.clock.sleep(budget)
                    continue
                # nothing in flight: either everyone is terminal, or a
                # drain left runnable sessions behind
                if self._is_draining():
                    self._interrupt_active()
                    return
                if not self._any_active():
                    return
        finally:
            with self._lock:
                self._driving = False

    # -- scheduling helpers (drive thread only) -------------------------
    def _is_draining(self) -> bool:
        with self._lock:
            return self._draining

    def _outstanding(self) -> bool:
        """Whether the fleet still owes a completion — a running
        session's, or a failed one's that routing will drop."""
        return self.evaluator.in_flight > 0

    def _any_active(self) -> bool:
        with self._lock:
            return any(s.state in SessionState.ACTIVE
                       for s in self._sessions.values())

    def _running(self) -> list[_Session]:
        with self._lock:
            return [s for s in self._sessions.values()
                    if s.state == SessionState.RUNNING]

    def _promote_queued(self) -> None:
        while True:
            with self._lock:
                running = sum(1 for s in self._sessions.values()
                              if s.state == SessionState.RUNNING)
                if not self._queued \
                        or running >= self.max_active_sessions:
                    return
                sid = self._queued.pop(0)
            session = self._get(sid)
            if session.state == SessionState.QUEUED:
                session.state = SessionState.RUNNING
                self._write_manifest(session)

    def _finish_completed(self) -> None:
        """Finish RUNNING sessions that are already done — notably a
        recovered session whose journal held every candidate, which
        never submits anything."""
        with self._lock:
            done = [s for s in self._sessions.values()
                    if s.state == SessionState.RUNNING and s.driver.done
                    and not s.driver.in_flight]
        for s in done:
            self._finish(s, SessionState.DONE)

    def _submit_round(self) -> None:
        """Fair-share: rotate over tenants, one submission per eligible
        tenant per turn, until the fleet is full or nobody is eligible.
        Per-tenant in-flight stays under ``tenant_quota``."""
        while True:
            running = self._running()
            tenant_inflight = _tickets_by_tenant(running)
            if sum(tenant_inflight.values()) >= self.max_in_flight:
                return
            # a session backing off a retry proposes nothing new until
            # the retry is resubmitted; its fleet slot serves the other
            # sessions meanwhile
            runnable = [s for s in running
                        if s.driver.wants_submit
                        and s.driver.next_retry_due is None]
            tenants = sorted({s.spec.tenant for s in runnable})
            if not tenants:
                return
            with self._lock:
                pick = None
                for i in range(len(tenants)):
                    tenant = tenants[(self._tenant_rotor + i)
                                     % len(tenants)]
                    if tenant_inflight.get(tenant, 0) >= self.tenant_quota:
                        continue
                    for s in runnable:      # first runnable session wins
                        if s.spec.tenant == tenant:
                            pick = s
                            break
                    if pick is not None:
                        self._tenant_rotor = \
                            (self._tenant_rotor + i + 1) % len(tenants)
                        break
                if pick is None:
                    return
            # driver call outside the service lock: submission takes
            # the store/evaluator/cache locks, and every lock is a leaf
            try:
                pick.driver.submit_next()
            except Exception as exc:
                self._fail_session(pick, exc)

    def _tend_running(self) -> None:
        """Per running session: journal and hand to ``on_record`` the
        records whose write-behind save has landed, resubmit the retries
        now due."""
        for s in self._running():
            try:
                s.driver.land()
                s.driver.dispatch_due_retries()
            except Exception as exc:
                self._fail_session(s, exc)

    def _wait_once(self) -> None:
        """Wait on the *shared* evaluator, route one completion to the
        running session that owns its ticket.  The wait ends early when
        a retry falls due; the next loop turn dispatches it."""
        try:
            ticket, result = self.evaluator.wait_any(
                timeout=self._wait_budget())
        except WaitTimeout:
            return
        session = next((s for s in self._running()
                        if s.driver.owns(ticket)), None)
        if session is None:
            return                       # its session has failed
        try:
            session.driver.complete(ticket, result)
        except Exception as exc:
            self._fail_session(session, exc)
            return
        if session.driver.done:
            self._finish(session, SessionState.DONE)

    def _wait_budget(self) -> Optional[float]:
        """Seconds until any running session's next retry falls due,
        None when no retry is backing off."""
        due = [s.driver.next_retry_due for s in self._running()
               if s.driver.next_retry_due is not None]
        return max(0.0, min(due) - self.clock.now()) if due else None

    # -- lifecycle transitions (drive thread only) ----------------------
    def _finish(self, session: _Session, state: str) -> None:
        """The one way a session ends: finalize its driver — landing
        held records and closing its journal — under containment.  An
        error there is kept in the session's status; it never escapes
        into the drive loop.  A failed session may still hold tickets;
        once it is not RUNNING, :meth:`_wait_once` drops them as they
        complete."""
        session.state = state
        try:
            session.trace = session.driver.finalize()
        except Exception as exc:
            session.error = session.error or repr(exc)
            session.trace = session.driver.trace
        self._write_manifest(session)

    def _fail_session(self, session: _Session, exc: Exception) -> None:
        """Containment of last resort: the driver itself raised.  The
        session dies alone — partial trace kept, its in-flight tickets
        left for routing to drop, every other session untouched."""
        session.error = repr(exc)
        self._finish(session, SessionState.FAILED)

    def _interrupt_active(self) -> None:
        """Drain epilogue: every non-terminal session becomes
        INTERRUPTED with its journal closed and durable — the input to
        :meth:`recover`."""
        with self._lock:
            active = [s for s in self._sessions.values()
                      if s.state in SessionState.ACTIVE]
            self._queued.clear()
        for s in active:
            self._finish(s, SessionState.INTERRUPTED)

    # ------------------------------------------------------------------
    # drain / recovery
    # ------------------------------------------------------------------
    def request_drain(self) -> None:
        """Stop submitting new evaluations; in-flight ones land (and
        journal) normally, then unfinished sessions are INTERRUPTED and
        ``drive`` returns.  Safe from any thread, including the drive
        thread's ``on_record``.  It takes the service lock, so never
        call it from a signal handler: one that interrupts a thread
        holding that lock would wait on it forever."""
        with self._lock:
            self._draining = True

    # -- manifests ------------------------------------------------------
    def _manifest_path(self, session_id: str) -> Optional[Path]:
        if self.journal_dir is None:
            return None
        return self.journal_dir / f"{session_id}.manifest.json"

    def _write_manifest(self, session: _Session) -> None:
        path = self._manifest_path(session.session_id)
        if path is None:
            return
        spec = session.spec
        manifest = {
            "session_id": session.session_id,
            "tenant": spec.tenant,
            "name": spec.name,
            "scheme": spec.scheme,
            "num_candidates": spec.num_candidates,
            "seed": spec.seed,
            "state": session.state,
            "completed": session.driver.completed,
            "journal": f"{session.session_id}.jsonl",
            "error": session.error,
        }
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(manifest, indent=2))
        tmp.replace(path)

    def recoverable_sessions(self) -> dict[str, dict]:
        """Manifests of sessions a previous (or drained) service left
        unfinished — INTERRUPTED by a drain, or RUNNING/QUEUED in a
        crash where the drain never got to run.  Keyed by session id."""
        if self.journal_dir is None:
            return {}
        out: dict[str, dict] = {}
        for path in sorted(self.journal_dir.glob("*.manifest.json")):
            try:
                manifest = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            if manifest.get("state") in (SessionState.INTERRUPTED,
                                         SessionState.RUNNING,
                                         SessionState.QUEUED):
                out[manifest["session_id"]] = manifest
        return out

    def recover(self, specs: dict[str, SessionSpec]) -> list[SessionHandle]:
        """Resume every recoverable session for which the caller
        supplied a fresh :class:`SessionSpec` (live problem/strategy
        objects cannot live in a manifest).  Each session replays its
        journal — already-completed records restored bit-identically,
        the strategy state rebuilt via ``Strategy.restore`` — and
        continues from its last durable candidate under its original
        session id (so its checkpoint namespace still matches).

        Specs must agree with the manifest on scheme / num_candidates /
        seed; a mismatch raises rather than silently diverging.

        Recovery opens a new serving epoch: a drain flag left over from
        the previous shutdown is cleared."""
        with self._lock:
            self._draining = False
        handles = []
        for sid, manifest in self.recoverable_sessions().items():
            spec = specs.get(sid)
            if spec is None:
                continue
            for field_name in ("scheme", "num_candidates", "seed"):
                want = manifest.get(field_name)
                got = getattr(spec, field_name)
                if want is not None and want != got:
                    raise ValueError(
                        f"recover({sid!r}): spec.{field_name}={got!r} "
                        f"does not match manifest {want!r}")
            journal = self.journal_dir / manifest["journal"]
            handles.append(self.submit(
                spec, session_id=sid,
                resume=journal if journal.exists() else None,
                _force=True))
        return handles
