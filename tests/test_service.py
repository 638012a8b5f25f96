"""Multi-tenant search service: multiplexing, isolation, drain/recover."""

import json
import os
import signal
import sys
import tempfile
import threading
import time
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
    assert svc.stats()["by_state"] == {SessionState.DONE: 6}


def test_checkpoint_keys_are_namespaced_per_session(space, problem,
                                                    tmp_path):
    store = CheckpointStore(tmp_path / "s")
    svc = SearchService(evaluator=SerialEvaluator(), store=store,
                        journal_dir=tmp_path / "j")
    a = svc.submit(_spec(space, problem, 0, tenant="a", n=3))
    b = svc.submit(_spec(space, problem, 0, tenant="b", n=3))
    svc.drive()
    keys = store.keys()
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


def test_deadline_sweep_on_the_shared_fleet(space, problem, tmp_path):
    """Every task of one session hangs past its deadline on a shared
    2-worker fleet: the sweep times each attempt out, retries it once
    and lands it failed, while the other session's records come out as
    they do solo and nothing is left counted in flight."""
    n = 3                      # below the population: asks ignore order
    solo = run_search(problem, _strategy(space, 1), n, scheme="baseline",
                      evaluator=SerialEvaluator(), seed=1)
    with ThreadPoolEvaluator(num_workers=2) as evaluator:
        svc = SearchService(evaluator=evaluator, journal_dir=tmp_path / "j")
        hung = svc.submit(_spec(
            space, problem, 0, tenant="hung", n=n, scheme="baseline",
            chaos={"hang_prob": 1.0, "hang_seconds": 0.3, "seed": 0},
            task_timeout=0.05,
            retry=RetryPolicy(2, base_delay=0, jitter=0)))
        clean = svc.submit(_spec(space, problem, 1, tenant="clean", n=n,
                                 scheme="baseline"))
        svc.drive()
        assert svc.stats()["in_flight"] == 0
    assert hung.poll().state == clean.poll().state == SessionState.DONE
    hung_trace = hung.result()
    assert hung_trace.fault_stats["by_kind"] == {"timeout": 2 * n}
    assert all(not r.ok and r.error.startswith("timeout")
               for r in hung_trace)
    got = sorted(clean.result().records, key=lambda r: r.candidate_id)
    assert [_record_key(r) for r in got] == \
        [_record_key(r) for r in solo.records]


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
                             svc.stats()["tenant_inflight"].get("greedy", 0))
    svc._submit_round = watched_submit_round
    for seed in range(4):
        svc.submit(_spec(space, problem, seed, tenant="greedy", n=3,
                         scheme="baseline"))
    svc.drive()
    svc.evaluator.close()
    assert 1 <= peak["greedy"] <= 2


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
# cancel + stream
# ---------------------------------------------------------------------------

def test_cancel_queued_session_never_submits(space, problem, tmp_path):
    svc = SearchService(evaluator=SerialEvaluator(),
                        journal_dir=tmp_path / "j")
    victim = svc.submit(_spec(space, problem, 0, scheme="baseline"))
    other = svc.submit(_spec(space, problem, 1, scheme="baseline"))
    victim.cancel()
    svc.drive()
    assert victim.poll().state == SessionState.CANCELLED
    assert victim.poll().submitted == 0
    assert other.poll().state == SessionState.DONE


def test_cancel_mid_run_keeps_partial_trace(space, problem, tmp_path):
    svc = SearchService(evaluator=SerialEvaluator(),
                        journal_dir=tmp_path / "j")
    handle = svc.submit(_spec(space, problem, 0, n=6, scheme="baseline",
                              on_record=lambda r: (r.candidate_id == 1
                                                   and handle.cancel())))
    svc.drive()
    assert handle.poll().state == SessionState.CANCELLED
    partial = handle.result()
    assert 2 <= len(partial) < 6


class _GatedStore(CheckpointStore):
    """A store whose saves wait until ``release`` is set."""

    def __init__(self, root):
        super().__init__(root)
        self.release = threading.Event()

    def save(self, key, weights, meta=None):
        if not self.release.wait(30):
            raise TimeoutError(f"{key} was never released")
        return super().save(key, weights, meta)


@pytest.mark.parametrize("teardown", ["cancel", "drain"])
def test_teardown_contains_a_record_that_raises_on_landing(
        space, problem, tmp_path, teardown):
    """A session torn down while its records wait on write-behind saves
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
        if teardown == "cancel":
            victim.cancel()
            store.release.set()
        else:
            svc.request_drain()

    other = svc.submit(_spec(space, problem, 1, tenant="other", n=3,
                             scheme="baseline", on_record=on_other))
    if teardown == "drain":
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
    assert status.state == (SessionState.CANCELLED if teardown == "cancel"
                            else SessionState.INTERRUPTED)
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


def test_stream_yields_records_in_completion_order(space, problem,
                                                   tmp_path):
    svc = SearchService(evaluator=SerialEvaluator(),
                        journal_dir=tmp_path / "j")
    handle = svc.submit(_spec(space, problem, 0, n=4, scheme="baseline"))
    svc.start()
    ids = [r.candidate_id for r in handle.stream()]
    svc.join(timeout=30)
    assert ids == [0, 1, 2, 3]
    assert handle.poll().state == SessionState.DONE


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


def test_sigterm_drains_background_service(space, problem, tmp_path):
    """The signal path end-to-end: SIGTERM to the process drains the
    service; in-flight work lands, sessions become INTERRUPTED."""
    svc = SearchService(evaluator=SerialEvaluator(),
                        store=CheckpointStore(tmp_path / "s"),
                        journal_dir=tmp_path / "j")
    replaced = svc.install_signal_handlers()
    if not replaced:                   # not the main thread: cannot test
        pytest.skip("signal handlers need the main thread")
    try:
        handle = svc.submit(_spec(
            space, problem, 7, n=2000,
            on_record=lambda r: time.sleep(0.001)))
        svc.start()
        deadline = time.monotonic() + 30
        while handle.poll().completed < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        os.kill(os.getpid(), signal.SIGTERM)
        svc.join(timeout=30)
        status = handle.poll()
        assert status.state == SessionState.INTERRUPTED
        assert 2 <= status.completed < 2000
    finally:
        svc.restore_signal_handlers()
        svc.request_drain()
        svc.join(timeout=30)


def test_context_manager_drains_on_exit(space, problem, tmp_path):
    with SearchService(evaluator=SerialEvaluator(),
                       journal_dir=tmp_path / "j") as svc:
        handle = svc.submit(_spec(space, problem, 0, n=3,
                                  scheme="baseline"))
        svc.start()
        for _ in handle.stream():
            pass
    assert handle.poll().state == SessionState.DONE


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
       cancel=st.none() | st.tuples(st.integers(0, 2), st.integers(1, 5)))
def test_generated_interleavings_keep_the_service_invariants(
        space, problem, tenants, max_active, cancel):
    """Random tenant mixes, fair-share widths and self-cancellations on
    one serial fleet: every session ends terminal, each record sees
    ``submitted == completed + in_flight``, no candidate id repeats,
    clean sessions match their solo runs and chaos sessions book exactly
    the crashes injected into them."""
    if cancel is not None:
        cancel = (cancel[0] % len(tenants), cancel[1])
    violations: list = []
    handles: list = []

    def watch(i):
        seen = []

        def on_record(record):
            seen.append(record.candidate_id)
            status = handles[i].poll()
            if status.submitted != status.completed + status.in_flight:
                violations.append((i, status))
            if cancel is not None and cancel == (i, len(seen)):
                handles[i].cancel()
        return on_record

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        svc = SearchService(evaluator=SerialEvaluator(),
                            store=CheckpointStore(root / "s"),
                            journal_dir=root / "j",
                            max_active_sessions=max_active)
        for i, (seed, n, crash) in enumerate(tenants):
            chaos = {"crash_prob": crash, "seed": seed} if crash else None
            handles.append(svc.submit(_spec(
                space, problem, seed, tenant=f"t{i}", n=n, chaos=chaos,
                retry=RetryPolicy(2, base_delay=0, jitter=0),
                on_record=watch(i))))
        svc.drive()
        assert violations == []
        assert svc.stats()["in_flight"] == 0
        for i, (seed, n, crash) in enumerate(tenants):
            status = handles[i].poll()
            assert status.state in (SessionState.DONE,
                                    SessionState.CANCELLED), status
            trace = handles[i].result()
            ids = [r.candidate_id for r in trace]
            assert len(ids) == len(set(ids))
            cancelled = cancel is not None and cancel[0] == i \
                and cancel[1] < n
            if not cancelled:
                assert status.state == SessionState.DONE
                assert ids == list(range(n))
            if crash:
                faults = trace.fault_stats
                assert faults["by_kind"].get("injected", 0) == \
                    faults["chaos"]["injected"]["crash"]
            elif not cancelled:
                solo = run_search(
                    problem, _strategy(space, seed), n, scheme="lcs",
                    store=CheckpointStore(root / f"solo{i}"),
                    evaluator=SerialEvaluator(), seed=seed)
                assert [_record_key(r) for r in trace] == \
                    [_record_key(r) for r in solo]
