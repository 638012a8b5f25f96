"""Multi-tenant search service: multiplexing, isolation, drain/recover."""

import gc
import json
import os
import sys
import tempfile
import threading
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import CheckpointStore
from repro.cluster import (
    RetryPolicy,
    SerialEvaluator,
    ThreadPoolEvaluator,
    TraceJournal,
    run_search,
)
from repro.nas import RandomSearch, RegularizedEvolution
from repro.service import (
    AdmissionError,
    SearchService,
    SessionSpec,
    SessionState,
)
from repro.tensor import get_plan_cache


def _strategy(space, seed):
    return RegularizedEvolution(space, rng=seed, population_size=4,
                                sample_size=2)


def _spec(space, problem, seed, *, tenant="t", n=4, scheme="lcs", **kw):
    return SessionSpec(problem=problem, strategy=_strategy(space, seed),
                       num_candidates=n, tenant=tenant, seed=seed,
                       scheme=scheme, **kw)


class _DrainingEvolution(RegularizedEvolution):
    """Evolution that requests a drain of ``service`` once it is told
    candidate ``at`` — as that candidate completes, while its record
    reaches ``on_record`` only once its write-behind save has landed."""

    def __init__(self, space, seed, service, at):
        super().__init__(space, rng=seed, population_size=4, sample_size=2)
        self.service, self.at = service, at

    def tell(self, candidate_id, arch_seq, score):
        super().tell(candidate_id, arch_seq, score)
        if candidate_id == self.at:
            self.service.request_drain()


def _draining_spec(space, problem, seed, service, *, at, n):
    return SessionSpec(problem=problem,
                       strategy=_DrainingEvolution(space, seed, service, at),
                       num_candidates=n, tenant="t", seed=seed)


def _record_key(r):
    """The determinism-relevant fields (timestamps legitimately vary)."""
    return (r.candidate_id, r.arch_seq, r.score, r.provider_id, r.ok)


# ---------------------------------------------------------------------------
# basic lifecycle
# ---------------------------------------------------------------------------

def test_submit_poll_result_single_session(space, problem, tmp_path):
    svc = SearchService(evaluator=SerialEvaluator(),
                        store=CheckpointStore(tmp_path / "s"),
                        journal_dir=tmp_path / "j")
    handle = svc.submit(_spec(space, problem, 0, n=4))
    assert handle.poll().state == SessionState.QUEUED
    svc.drive()
    status = handle.poll()
    assert status.state == SessionState.DONE
    assert status.completed == status.num_candidates == 4
    trace = handle.result()
    assert len(trace) == 4 and all(r.ok for r in trace)


def test_io_spec_names_change_no_decision(space, problem, tmp_path):
    """``SessionSpec.cache`` / ``prefetch`` and the ``async_io``,
    ``transfer_backend`` and ``zero_cost`` driver kwargs survive only as
    names: every store-backed session already saves write-behind, reads
    providers through a population-sized cache, transfers through
    checkpoints and screens no candidate before training it (the
    supernet backend and the zero-cost gate are retired), so setting them decides
    nothing differently.  ``run_search`` takes neither
    ``transfer_backend`` nor ``zero_cost``."""
    svc = SearchService(evaluator=SerialEvaluator(),
                        store=CheckpointStore(tmp_path / "s"),
                        journal_dir=tmp_path / "j")
    named = svc.submit(_spec(space, problem, 0, n=8, cache=True,
                             prefetch=True,
                             extra_driver_kwargs={
                                 "async_io": True,
                                 "transfer_backend": "supernet",
                                 "zero_cost": True}))
    plain = svc.submit(_spec(space, problem, 0, n=8, tenant="u"))
    svc.drive()
    for handle in (named, plain):
        io_stats = handle.result().io_stats
        assert "drain_seconds" in io_stats and "prefetch" not in io_stats
        assert io_stats["cache"]["max_entries"] == 4
        assert io_stats["cache"]["hits"] > 0
    assert [_record_key(r) for r in named.result()] == \
        [_record_key(r) for r in plain.result()]
    assert any(r.provider_id is not None for r in named.result())
    with pytest.raises(ValueError, match="transfer_backend"):
        _spec(space, problem, 0,
              extra_driver_kwargs={"transfer_backend": "gpu"})
    with pytest.raises(TypeError, match="zero_cost"):
        _spec(space, problem, 0, extra_driver_kwargs={"zero_cost": "yes"})
    for kwarg in ({"transfer_backend": "checkpoint"}, {"zero_cost": True}):
        with pytest.raises(TypeError, match=next(iter(kwarg))):
            run_search(problem, _strategy(space, 0), 2, scheme="lcs",
                       store=CheckpointStore(tmp_path / "c"), **kwarg)


def test_plan_engine_spec_decides_what_an_eager_one_does(space, problem,
                                                         tmp_path):
    """``SessionSpec.engine`` survives only as a name: a ``"plan"``
    session trains eagerly, and the retired plan cache counts nothing."""
    zeros = {"hits": 0, "misses": 0, "traces": 0}
    assert get_plan_cache().stats() == zeros
    svc = SearchService(evaluator=SerialEvaluator(),
                        store=CheckpointStore(tmp_path / "s"),
                        journal_dir=tmp_path / "j")
    plan = svc.submit(_spec(space, problem, 0, n=8, engine="plan"))
    eager = svc.submit(_spec(space, problem, 0, n=8, tenant="u",
                             engine="eager"))
    svc.drive()

    def decided(handle):
        return [(r.candidate_id, r.arch_seq, r.score, r.provider_id)
                for r in handle.result()]
    assert decided(plan) == decided(eager)
    assert any(r.provider_id is not None for r in plan.result())
    assert get_plan_cache().stats() == zeros


def test_finished_sessions_release_their_provider_weights(space, problem,
                                                          tmp_path):
    """The service keeps each finished session's driver for ``poll``;
    the provider cache must not keep its checkpoints alive with it."""
    loaded = []

    class TrackingStore(CheckpointStore):
        """Hands out arrays that own their memory, so a weak reference
        to each says whether anything still holds it."""

        def load(self, key):
            weights = {k: a.copy() for k, a in super().load(key).items()}
            loaded.extend(weakref.ref(a) for a in weights.values())
            return weights

    svc = SearchService(evaluator=SerialEvaluator(),
                        store=TrackingStore(tmp_path / "s"),
                        journal_dir=tmp_path / "j")
    handles = [svc.submit(_spec(space, problem, seed, n=8))
               for seed in (0, 1)]
    svc.drive()
    gc.collect()
    assert loaded
    assert not [ref for ref in loaded if ref() is not None]
    for handle in handles:
        assert handle.poll().state == SessionState.DONE
        cache = handle.result().io_stats["cache"]
        assert cache["hits"] > 0 and cache["max_entries"] == 4


def test_result_before_terminal_raises(space, problem, tmp_path):
    svc = SearchService(evaluator=SerialEvaluator(),
                        journal_dir=tmp_path / "j")
    handle = svc.submit(_spec(space, problem, 0, scheme="baseline"))
    with pytest.raises(RuntimeError, match="no result yet"):
        handle.result()


def test_unknown_session_raises_keyerror(tmp_path):
    svc = SearchService(journal_dir=tmp_path / "j")
    with pytest.raises(KeyError):
        svc.poll("nope")


def test_many_sessions_share_one_fleet(space, problem, tmp_path):
    evaluator = SerialEvaluator()
    svc = SearchService(evaluator=evaluator,
                        store=CheckpointStore(tmp_path / "s"),
                        journal_dir=tmp_path / "j",
                        max_active_sessions=8)
    handles = [svc.submit(_spec(space, problem, seed, n=3,
                                tenant=f"tenant{seed % 3}"))
               for seed in range(6)]
    svc.drive()
    for h in handles:
        assert h.poll().state == SessionState.DONE
        assert len(h.result()) == 3
    # one shared evaluator ran every candidate of every session
    assert all(svc._get(h.session_id).driver.evaluator is evaluator
               for h in handles)


def test_checkpoint_keys_are_namespaced_per_session(space, problem,
                                                    tmp_path):
    store = CheckpointStore(tmp_path / "s")
    svc = SearchService(evaluator=SerialEvaluator(), store=store,
                        journal_dir=tmp_path / "j")
    a = svc.submit(_spec(space, problem, 0, tenant="a", n=3))
    b = svc.submit(_spec(space, problem, 0, tenant="b", n=3))
    svc.drive()
    keys = [p.stem for p in store.root.glob("*.bin")]
    assert any(k.startswith(a.session_id + "--") for k in keys)
    assert any(k.startswith(b.session_id + "--") for k in keys)
    # identical seeds, zero collisions: the namespace keeps them apart
    assert len(keys) == len(set(keys))
    assert all("--cand_" in k for k in keys)


# ---------------------------------------------------------------------------
# fault isolation
# ---------------------------------------------------------------------------

def test_clean_tenant_is_bit_identical_to_solo_run(space, problem,
                                                   tmp_path):
    solo = run_search(problem, _strategy(space, 7), 5, scheme="lcs",
                      store=CheckpointStore(tmp_path / "solo"),
                      evaluator=SerialEvaluator(), seed=7)
    svc = SearchService(evaluator=SerialEvaluator(),
                        store=CheckpointStore(tmp_path / "svc"),
                        journal_dir=tmp_path / "j")
    clean = svc.submit(_spec(space, problem, 7, tenant="clean", n=5))
    for seed in (21, 22):
        svc.submit(_spec(space, problem, seed, tenant="chaotic", n=5,
                         chaos={"crash_prob": 0.4, "seed": seed},
                         retry=None))
    svc.drive()
    got = [_record_key(r) for r in clean.result().records]
    want = [_record_key(r) for r in solo.records]
    assert got == want


def test_chaos_lands_only_in_the_chaotic_sessions_stats(space, problem,
                                                        tmp_path):
    svc = SearchService(evaluator=SerialEvaluator(),
                        store=CheckpointStore(tmp_path / "s"),
                        journal_dir=tmp_path / "j")
    clean = svc.submit(_spec(space, problem, 0, tenant="clean", n=4))
    chaotic = svc.submit(_spec(space, problem, 1, tenant="chaotic", n=4,
                               chaos={"crash_prob": 1.0, "seed": 0}))
    svc.drive()
    clean_trace = clean.result()
    chaos_trace = chaotic.result()
    assert clean_trace.fault_stats is None
    assert chaos_trace.fault_stats["by_kind"]["injected"] == 4
    assert chaos_trace.fault_stats["failed_records"] == 4
    assert all(r.ok for r in clean_trace)
    assert not any(r.ok for r in chaos_trace)


def test_buggy_session_fails_alone(space, problem, tmp_path):
    class ExplodingStrategy(RandomSearch):
        def ask(self):
            raise RuntimeError("strategy bug")

    svc = SearchService(evaluator=SerialEvaluator(),
                        journal_dir=tmp_path / "j")
    good = svc.submit(_spec(space, problem, 0, tenant="good", n=3,
                            scheme="baseline"))
    bad = svc.submit(SessionSpec(problem=problem,
                                 strategy=ExplodingStrategy(space, rng=0),
                                 num_candidates=3, tenant="bad",
                                 scheme="baseline"))
    svc.drive()
    assert bad.poll().state == SessionState.FAILED
    assert "strategy bug" in bad.poll().error
    assert good.poll().state == SessionState.DONE
    assert len(good.result()) == 3


@settings(max_examples=40, deadline=None)
@given(sizes=st.lists(st.integers(2, 5), min_size=2, max_size=3),
       victim=st.integers(0, 2), fail_at=st.integers(0, 3),
       schemes=st.lists(st.sampled_from(["baseline", "lcs"]),
                        min_size=3, max_size=3))
def test_session_failing_with_tickets_in_flight_dies_alone(
        space, problem, sizes, victim, fail_at, schemes):
    """On a thread fleet, one session's ``on_record`` raises at a drawn
    record, before its last.  The session holds a fleet share of two
    tickets and the fleet has room for every share, so at least one of
    its tickets is still in flight when it fails; the test checks that
    rather than assuming it.  The session ends FAILED with the records
    it landed kept, every other session lands ids ``0..n-1``, and
    ``drive`` returns only once the fleet has nothing in flight: routing
    dropped the failed session's last completions."""
    victim %= len(sizes)
    fail_at %= sizes[victim] - 1
    landed: list = []
    in_flight_at_failure: list = []
    handles: list = []

    def explode(record):
        landed.append(record.candidate_id)
        if len(landed) == fail_at + 1:
            in_flight_at_failure.append(handles[victim].poll().in_flight)
            raise RuntimeError("tenant callback bug")

    with tempfile.TemporaryDirectory() as tmp, \
            ThreadPoolEvaluator(num_workers=2 * len(sizes)) as fleet:
        svc = SearchService(evaluator=fleet,
                            store=CheckpointStore(Path(tmp) / "s"),
                            tenant_quota=2)
        for i, n in enumerate(sizes):
            handles.append(svc.submit(_spec(
                space, problem, i, tenant=f"t{i}", n=n,
                scheme="baseline" if i == victim else schemes[i],
                on_record=explode if i == victim else None)))
        svc.drive()
        assert fleet.in_flight == 0
    assert in_flight_at_failure and in_flight_at_failure[0] >= 1
    status = handles[victim].poll()
    assert status.state == SessionState.FAILED
    assert "tenant callback bug" in status.error
    assert [r.candidate_id for r in handles[victim].result()] == landed
    for i, n in enumerate(sizes):
        if i != victim:
            status = handles[i].poll()
            assert status.state == SessionState.DONE
            assert status.in_flight == 0
            ids = sorted(r.candidate_id for r in handles[i].result())
            assert ids == list(range(n))


def test_retry_backoff_does_not_stall_other_sessions(space, problem,
                                                     tmp_path):
    """While one session's retry backs off, the drive thread keeps
    serving the other session; the retry still lands after a drain."""
    svc = SearchService(evaluator=SerialEvaluator(),
                        journal_dir=tmp_path / "j")
    landed = []

    def watch(tenant):
        def on_record(record):
            landed.append(tenant)
            if landed.count("clean") == 2:
                svc.request_drain()
        return on_record

    retrying = svc.submit(_spec(
        space, problem, 0, tenant="retrying", n=1, scheme="baseline",
        chaos={"crash_prob": 1.0, "seed": 0},
        retry=RetryPolicy(max_attempts=2, base_delay=1.5, jitter=0.0),
        on_record=watch("retrying")))
    clean = svc.submit(_spec(space, problem, 1, tenant="clean", n=4,
                             scheme="baseline", on_record=watch("clean")))
    svc.drive()
    assert landed == ["clean", "clean", "retrying"]
    assert retrying.poll().state == SessionState.DONE
    faults = retrying.result().fault_stats
    assert faults["retries"] == 1 and faults["backoff_seconds"] == 1.5
    assert clean.poll().state == SessionState.INTERRUPTED


def test_queued_session_holds_no_open_journal(space, problem, tmp_path):
    svc = SearchService(evaluator=SerialEvaluator(),
                        journal_dir=tmp_path / "j")
    handle = svc.submit(_spec(space, problem, 0, n=2, scheme="baseline"))
    journal = tmp_path / "j" / f"{handle.session_id}.jsonl"
    assert not journal.exists()
    if os.path.isdir("/proc/self/fd"):
        open_files = {os.path.realpath(f"/proc/self/fd/{fd}")
                      for fd in os.listdir("/proc/self/fd")}
        assert str(journal.resolve()) not in open_files
    svc.drive()
    header, records = TraceJournal.replay(journal)
    assert header["journal"] and len(records) == 2


# ---------------------------------------------------------------------------
# admission control + fair share
# ---------------------------------------------------------------------------

def test_full_queue_rejects_with_backpressure(space, problem, tmp_path):
    svc = SearchService(evaluator=SerialEvaluator(),
                        journal_dir=tmp_path / "j",
                        max_pending_sessions=2)
    for seed in range(2):
        svc.submit(_spec(space, problem, seed, scheme="baseline"))
    with pytest.raises(AdmissionError, match="queue full"):
        svc.submit(_spec(space, problem, 9, scheme="baseline"))


def test_tenant_session_quota_rejects(space, problem, tmp_path):
    svc = SearchService(evaluator=SerialEvaluator(),
                        journal_dir=tmp_path / "j",
                        tenant_max_sessions=1)
    svc.submit(_spec(space, problem, 0, tenant="greedy", scheme="baseline"))
    with pytest.raises(AdmissionError, match="session quota"):
        svc.submit(_spec(space, problem, 1, tenant="greedy",
                         scheme="baseline"))
    # a different tenant is unaffected
    svc.submit(_spec(space, problem, 1, tenant="polite", scheme="baseline"))


def test_tenant_quota_caps_in_flight_share(space, problem, tmp_path):
    """With a 4-worker fleet and tenant_quota=2, a tenant with many
    runnable sessions never holds more than 2 slots at once."""
    peak = {"greedy": 0}
    svc = SearchService(evaluator=ThreadPoolEvaluator(num_workers=4),
                        journal_dir=tmp_path / "j",
                        tenant_quota=2, max_active_sessions=8)

    orig_submit_round = svc._submit_round

    def watched_submit_round():
        orig_submit_round()
        peak["greedy"] = max(peak["greedy"],
                             sum(h.poll().in_flight for h in handles))
    svc._submit_round = watched_submit_round
    handles = [svc.submit(_spec(space, problem, seed, tenant="greedy", n=3,
                                scheme="baseline"))
               for seed in range(4)]
    svc.drive()
    svc.evaluator.close()
    assert 1 <= peak["greedy"] <= 2


@pytest.mark.parametrize("name, value", [
    ("tenant_quota", 0),
    ("max_active_sessions", 0),
    ("max_pending_sessions", 0),
    ("tenant_max_sessions", 0),
])
def test_sizes_below_one_are_rejected_at_construction(tmp_path, name, value):
    """A zero quota or width would admit sessions that ``drive`` could
    never run (or reject every submission): refuse it up front."""
    with pytest.raises(ValueError, match=name):
        SearchService(evaluator=SerialEvaluator(),
                      journal_dir=tmp_path / "j", **{name: value})


def test_draining_service_rejects_submissions(space, problem, tmp_path):
    svc = SearchService(evaluator=SerialEvaluator(),
                        journal_dir=tmp_path / "j")
    svc.request_drain()
    with pytest.raises(AdmissionError, match="draining"):
        svc.submit(_spec(space, problem, 0, scheme="baseline"))


def test_submit_while_driving_keeps_manifests_consistent(space, problem,
                                                         tmp_path):
    """Tenant threads submit while the drive thread promotes and
    finishes sessions.  Each session's first manifest is written before
    the drive thread can see the session, so no two writes race on the
    same temp file and no late QUEUED write hides a newer state."""
    svc = SearchService(evaluator=SerialEvaluator(),
                        journal_dir=tmp_path / "j", max_active_sessions=2)
    handles = [svc.submit(_spec(space, problem, 0, n=12,
                                scheme="baseline"))]
    errors = []

    def guarded(fn, *args):
        try:
            fn(*args)
        except Exception as exc:          # pragma: no cover - the race
            errors.append(exc)

    def tenant(t):
        for i in range(6):
            handles.append(svc.submit(_spec(
                space, problem, 10 * t + i, n=2, tenant=f"t{t}",
                scheme="baseline")))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=guarded, args=(svc.drive,))]
        threads += [threading.Thread(target=guarded, args=(tenant, t))
                    for t in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    svc.drive()        # sessions admitted after the drive loop went idle
    manifests = sorted((tmp_path / "j").glob("*.manifest.json"))
    assert len(manifests) == len(handles) == 25
    for path in manifests:
        assert json.loads(path.read_text())["state"] == SessionState.DONE


# ---------------------------------------------------------------------------
# teardown
# ---------------------------------------------------------------------------

class _GatedStore(CheckpointStore):
    """A store whose saves wait until ``release`` is set."""

    def __init__(self, root):
        super().__init__(root)
        self.release = threading.Event()

    def save(self, key, weights, meta=None):
        if not self.release.wait(30):
            raise TimeoutError(f"{key} was never released")
        return super().save(key, weights, meta)


@pytest.mark.parametrize("teardown", ["drain"])
def test_teardown_contains_a_record_that_raises_on_landing(
        space, problem, tmp_path, teardown):
    """A session drained while its records wait on write-behind saves
    lands them as it ends; the tenant's ``on_record`` raising there ends
    that session with the error in its status, not the drive loop."""
    store = _GatedStore(tmp_path / "s")
    svc = SearchService(evaluator=SerialEvaluator(), store=store,
                        journal_dir=tmp_path / "j")

    def explode(record):
        raise RuntimeError("tenant callback bug")

    victim = svc.submit(_spec(space, problem, 0, tenant="victim", n=4,
                              on_record=explode,
                              extra_driver_kwargs={"async_io": True}))

    held: list = []

    def on_other(record):
        if record.candidate_id != 2:             # the other's last record
            return
        held.append(victim.poll().completed)
        svc.request_drain()

    other = svc.submit(_spec(space, problem, 1, tenant="other", n=3,
                             scheme="baseline", on_record=on_other))
    # release the saves only once the drain epilogue ends the victim
    interrupt = svc._interrupt_active

    def release_then_interrupt():
        store.release.set()
        interrupt()
    svc._interrupt_active = release_then_interrupt
    try:
        svc.drive()
    finally:
        store.release.set()
    assert held and held[0] >= 1        # a completed record was held
    status = victim.poll()
    assert status.state == SessionState.INTERRUPTED
    assert "tenant callback bug" in status.error
    assert other.poll().state == SessionState.DONE
    # every held record landed behind the one that raised, and the
    # run's stats are still attached
    trace = victim.result()
    _, journaled = TraceJournal.replay(tmp_path / "j" /
                                       f"{victim.session_id}.jsonl")
    assert [r.candidate_id for r in journaled] == \
        [r.candidate_id for r in trace]
    assert trace.io_stats is not None
    assert trace.transfer_stats is not None


# ---------------------------------------------------------------------------
# graceful shutdown + recovery
# ---------------------------------------------------------------------------

def test_drain_interrupts_and_journals_sessions(space, problem, tmp_path):
    svc = SearchService(evaluator=SerialEvaluator(),
                        store=CheckpointStore(tmp_path / "s"),
                        journal_dir=tmp_path / "j")
    handle = svc.submit(_draining_spec(space, problem, 7, svc, at=2, n=6))
    svc.drive()
    assert handle.poll().state == SessionState.INTERRUPTED
    # every landed record is durable in the journal
    journal = tmp_path / "j" / f"{handle.session_id}.jsonl"
    assert journal.exists()
    from repro.cluster import TraceJournal
    _, records = TraceJournal.replay(journal)
    assert [r.candidate_id for r in records] == [0, 1, 2]
    manifests = svc.recoverable_sessions()
    assert handle.session_id in manifests
    assert manifests[handle.session_id]["completed"] == 3


def test_recover_replays_bit_identically_and_completes(space, problem,
                                                       tmp_path):
    solo = run_search(problem, _strategy(space, 7), 6, scheme="lcs",
                      store=CheckpointStore(tmp_path / "solo"),
                      evaluator=SerialEvaluator(), seed=7)
    store = CheckpointStore(tmp_path / "s")
    svc = SearchService(evaluator=SerialEvaluator(), store=store,
                        journal_dir=tmp_path / "j")
    handle = svc.submit(_draining_spec(space, problem, 7, svc, at=2, n=6))
    sid = handle.session_id
    svc.drive()
    assert handle.poll().state == SessionState.INTERRUPTED

    revived = SearchService(evaluator=SerialEvaluator(), store=store,
                            journal_dir=tmp_path / "j")
    handles = revived.recover({sid: _spec(space, problem, 7, n=6)})
    assert [h.session_id for h in handles] == [sid]
    revived.drive()
    trace = handles[0].result()
    assert handles[0].poll().state == SessionState.DONE
    assert len(trace) == 6
    assert trace.fault_stats["resumed_records"] == 3
    # replayed records are bit-identical to the uninterrupted solo run
    want = [_record_key(r) for r in solo.records[:3]]
    assert [_record_key(r) for r in trace.records[:3]] == want
    # the manifest reflects the completed recovery
    assert revived.recoverable_sessions() == {}


class _RefusingEvaluator(SerialEvaluator):
    """A fleet that fails any session submitting to it."""

    def submit(self, task):
        raise AssertionError("a complete journal submits nothing")


def test_recovering_a_complete_journal_finishes_without_submitting(
        space, problem, tmp_path):
    """A session whose journal already holds every candidate (a crash
    after its last record was journaled, before its manifest said DONE)
    replays it and ends DONE without asking the fleet for anything.
    ``recover`` resumes only the sessions it is given a spec for."""
    store = CheckpointStore(tmp_path / "s")
    svc = SearchService(evaluator=SerialEvaluator(), store=store,
                        journal_dir=tmp_path / "j")
    done = svc.submit(_spec(space, problem, 7, n=3))
    other = svc.submit(_spec(space, problem, 8, n=3))
    svc.drive()
    for handle in (done, other):
        path = tmp_path / "j" / f"{handle.session_id}.manifest.json"
        manifest = json.loads(path.read_text())
        path.write_text(json.dumps(dict(manifest, state="running")))

    revived = SearchService(evaluator=_RefusingEvaluator(), store=store,
                            journal_dir=tmp_path / "j")
    handles = revived.recover({done.session_id: _spec(space, problem, 7,
                                                      n=3)})
    assert [h.session_id for h in handles] == [done.session_id]
    revived.drive()
    status = handles[0].poll()
    assert status.state == SessionState.DONE, status.error
    trace = handles[0].result()
    assert [_record_key(r) for r in trace] == \
        [_record_key(r) for r in done.result()]
    assert trace.fault_stats["resumed_records"] == 3
    assert list(revived.recoverable_sessions()) == [other.session_id]


def test_recover_rejects_mismatched_spec(space, problem, tmp_path):
    svc = SearchService(evaluator=SerialEvaluator(),
                        store=CheckpointStore(tmp_path / "s"),
                        journal_dir=tmp_path / "j")
    handle = svc.submit(_draining_spec(space, problem, 7, svc, at=0, n=6))
    svc.drive()
    revived = SearchService(evaluator=SerialEvaluator(),
                            store=CheckpointStore(tmp_path / "s"),
                            journal_dir=tmp_path / "j")
    with pytest.raises(ValueError, match="num_candidates"):
        revived.recover({handle.session_id: _spec(space, problem, 7, n=9)})


def test_drain_from_another_thread_interrupts_the_driven_session(
        space, problem, tmp_path):
    """``drive`` runs on this thread while a second thread requests the
    drain: in-flight work lands, the session ends INTERRUPTED and its
    journal holds exactly the records of its trace."""
    svc = SearchService(evaluator=SerialEvaluator(),
                        store=CheckpointStore(tmp_path / "s"),
                        journal_dir=tmp_path / "j")
    landed, drained = threading.Event(), threading.Event()

    def on_record(record):
        if record.candidate_id == 1:
            landed.set()
            # hold the drive thread until the other thread has drained
            assert drained.wait(30), "request_drain never returned"

    def drainer():
        if landed.wait(30):
            svc.request_drain()
            drained.set()

    n = 40
    handle = svc.submit(_spec(space, problem, 7, n=n, on_record=on_record))
    thread = threading.Thread(target=drainer)
    thread.start()
    try:
        svc.drive()
    finally:
        landed.set()
        thread.join(timeout=30)
    assert drained.is_set() and not thread.is_alive()
    status = handle.poll()
    assert status.state == SessionState.INTERRUPTED
    assert 2 <= status.completed < n and status.in_flight == 0
    _, journaled = TraceJournal.replay(
        tmp_path / "j" / f"{handle.session_id}.jsonl")
    assert journaled == list(handle.result().records)


def test_cancelled_manifest_is_not_recoverable(space, problem, tmp_path):
    """A manifest in the ``"cancelled"`` state, which an older service
    wrote, names no session to recover."""
    svc = SearchService(evaluator=SerialEvaluator(),
                        store=CheckpointStore(tmp_path / "s"),
                        journal_dir=tmp_path / "j")
    handle = svc.submit(_draining_spec(space, problem, 7, svc, at=0, n=6))
    svc.drive()
    path = tmp_path / "j" / f"{handle.session_id}.manifest.json"
    manifest = json.loads(path.read_text())
    manifest["state"] = "cancelled"
    path.write_text(json.dumps(manifest))
    revived = SearchService(evaluator=SerialEvaluator(),
                            store=CheckpointStore(tmp_path / "s"),
                            journal_dir=tmp_path / "j")
    assert revived.recoverable_sessions() == {}
    assert revived.recover(
        {handle.session_id: _spec(space, problem, 7, n=6)}) == []


# ---------------------------------------------------------------------------
# generated interleavings
# ---------------------------------------------------------------------------

_tenants = st.lists(
    st.tuples(st.integers(0, 99),                 # seed
              st.integers(2, 5),                  # candidates
              st.sampled_from([0.0, 0.3])),       # chaos crash probability
    min_size=2, max_size=3)


@settings(max_examples=25, deadline=None)
@given(tenants=_tenants, max_active=st.integers(1, 3),
       drain=st.none() | st.tuples(st.integers(0, 2), st.integers(1, 5)))
def test_generated_interleavings_keep_the_service_invariants(
        space, problem, tenants, max_active, drain):
    """Random tenant mixes, fair-share widths and drain points on one
    serial fleet: every session ends DONE or INTERRUPTED, each record
    sees ``submitted == completed + in_flight``, an interrupted
    session's journal holds exactly its trace, and recovering it lands
    every candidate id once.  Clean sessions that finish match their
    solo runs; chaos sessions book exactly the crashes injected into
    them."""
    if drain is not None:       # a record before some session's last
        who = drain[0] % len(tenants)
        drain = (who, 1 + (drain[1] - 1) % (tenants[who][1] - 1))
    violations: list = []

    def watch(svc, handles, i, drain_at=None):
        seen = []

        def on_record(record):
            seen.append(record.candidate_id)
            status = handles[i].poll()
            if status.submitted != status.completed + status.in_flight:
                violations.append((i, status))
            if drain_at == len(seen):
                svc.request_drain()
        return on_record

    def spec(svc, handles, i, drain_at=None):
        seed, n, crash = tenants[i]
        chaos = {"crash_prob": crash, "seed": seed} if crash else None
        return _spec(space, problem, seed, tenant=f"t{i}", n=n, chaos=chaos,
                     retry=RetryPolicy(2, base_delay=0, jitter=0),
                     on_record=watch(svc, handles, i, drain_at))

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        svc = SearchService(evaluator=SerialEvaluator(),
                            store=CheckpointStore(root / "s"),
                            journal_dir=root / "j",
                            max_active_sessions=max_active)
        handles: list = []
        for i in range(len(tenants)):
            at = drain[1] if drain is not None and drain[0] == i else None
            handles.append(svc.submit(spec(svc, handles, i, at)))
        svc.drive()
        assert violations == []
        assert all(h.poll().in_flight == 0 for h in handles)
        interrupted = {}
        for i, (seed, n, crash) in enumerate(tenants):
            status = handles[i].poll()
            assert status.state in (SessionState.DONE,
                                    SessionState.INTERRUPTED), status
            trace = handles[i].result()
            ids = [r.candidate_id for r in trace]
            assert len(ids) == len(set(ids))
            if crash:
                faults = trace.fault_stats
                assert faults["by_kind"].get("injected", 0) == \
                    faults["chaos"]["injected"]["crash"]
            if status.state == SessionState.INTERRUPTED:
                _, journaled = TraceJournal.replay(
                    root / "j" / f"{handles[i].session_id}.jsonl")
                assert journaled == list(trace.records)
                interrupted[handles[i].session_id] = i
                continue
            assert ids == list(range(n))
            if not crash:
                solo = run_search(
                    problem, _strategy(space, seed), n, scheme="lcs",
                    store=CheckpointStore(root / f"solo{i}"),
                    evaluator=SerialEvaluator(), seed=seed)
                assert [_record_key(r) for r in trace] == \
                    [_record_key(r) for r in solo]
        if drain is None:
            assert not interrupted

        revived = SearchService(evaluator=SerialEvaluator(),
                                store=CheckpointStore(root / "s"),
                                journal_dir=root / "j",
                                max_active_sessions=max_active)
        resumed: list = [None] * len(tenants)
        for handle in revived.recover({
                sid: spec(revived, resumed, i)
                for sid, i in interrupted.items()}):
            resumed[interrupted[handle.session_id]] = handle
        assert sorted(h.session_id for h in resumed if h is not None) == \
            sorted(interrupted)
        revived.drive()
        assert violations == []
        for sid, i in interrupted.items():
            assert resumed[i].poll().state == SessionState.DONE
            ids = [r.candidate_id for r in resumed[i].result()]
            assert sorted(ids) == list(range(tenants[i][1]))
