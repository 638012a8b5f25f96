"""Multi-tenant search service: multiplexing, isolation, drain/recover."""

import json
import os
import signal
import sys
import threading
import time

import pytest

from repro.checkpoint import ShardedCheckpointStore
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


def _strategy(space, seed):
    return RegularizedEvolution(space, rng=seed, population_size=4,
                                sample_size=2)


def _spec(space, problem, seed, *, tenant="t", n=4, scheme="lcs", **kw):
    return SessionSpec(problem=problem, strategy=_strategy(space, seed),
                       num_candidates=n, tenant=tenant, seed=seed,
                       scheme=scheme, **kw)


def _record_key(r):
    """The determinism-relevant fields (timestamps legitimately vary)."""
    return (r.candidate_id, r.arch_seq, r.score, r.provider_id, r.ok)


# ---------------------------------------------------------------------------
# basic lifecycle
# ---------------------------------------------------------------------------

def test_submit_poll_result_single_session(space, problem, tmp_path):
    svc = SearchService(evaluator=SerialEvaluator(),
                        store=ShardedCheckpointStore(tmp_path / "s"),
                        journal_dir=tmp_path / "j")
    handle = svc.submit(_spec(space, problem, 0, n=4))
    assert handle.poll().state == SessionState.QUEUED
    svc.drive()
    status = handle.poll()
    assert status.state == SessionState.DONE
    assert status.completed == status.num_candidates == 4
    trace = handle.result()
    assert len(trace) == 4 and all(r.ok for r in trace)


def test_prefetch_spec_turns_on_a_provider_cache(space, problem, tmp_path):
    """``SessionSpec.prefetch`` survives only as an alias for a default
    provider cache: the session reports cache stats and no prefetcher."""
    svc = SearchService(evaluator=SerialEvaluator(),
                        store=ShardedCheckpointStore(tmp_path / "s"),
                        journal_dir=tmp_path / "j")
    fast = svc.submit(_spec(space, problem, 0, n=6, prefetch=True))
    plain = svc.submit(_spec(space, problem, 0, n=6, tenant="u"))
    svc.drive()
    io_stats = fast.result().io_stats
    assert "cache" in io_stats and "prefetch" not in io_stats
    assert io_stats["cache"]["insertions"] > 0
    assert plain.result().io_stats is None
    assert [_record_key(r) for r in fast.result()] == \
        [_record_key(r) for r in plain.result()]


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
                        store=ShardedCheckpointStore(tmp_path / "s"),
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
    store = ShardedCheckpointStore(tmp_path / "s")
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
                      store=ShardedCheckpointStore(tmp_path / "solo"),
                      evaluator=SerialEvaluator(), seed=7)
    svc = SearchService(evaluator=SerialEvaluator(),
                        store=ShardedCheckpointStore(tmp_path / "svc"),
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
                        store=ShardedCheckpointStore(tmp_path / "s"),
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
        with svc._lock:
            peak["greedy"] = max(peak["greedy"],
                                 svc._tenant_inflight.get("greedy", 0))
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
                        store=ShardedCheckpointStore(tmp_path / "s"),
                        journal_dir=tmp_path / "j")
    handle = svc.submit(_spec(
        space, problem, 7, n=6,
        on_record=lambda r: r.candidate_id == 2 and svc.request_drain()))
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
                      store=ShardedCheckpointStore(tmp_path / "solo"),
                      evaluator=SerialEvaluator(), seed=7)
    store = ShardedCheckpointStore(tmp_path / "s")
    svc = SearchService(evaluator=SerialEvaluator(), store=store,
                        journal_dir=tmp_path / "j")
    handle = svc.submit(_spec(
        space, problem, 7, n=6,
        on_record=lambda r: r.candidate_id == 2 and svc.request_drain()))
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
                        store=ShardedCheckpointStore(tmp_path / "s"),
                        journal_dir=tmp_path / "j")
    handle = svc.submit(_spec(
        space, problem, 7, n=6,
        on_record=lambda r: svc.request_drain()))
    svc.drive()
    revived = SearchService(evaluator=SerialEvaluator(),
                            store=ShardedCheckpointStore(tmp_path / "s"),
                            journal_dir=tmp_path / "j")
    with pytest.raises(ValueError, match="num_candidates"):
        revived.recover({handle.session_id: _spec(space, problem, 7, n=9)})


def test_sigterm_drains_background_service(space, problem, tmp_path):
    """The signal path end-to-end: SIGTERM to the process drains the
    service; in-flight work lands, sessions become INTERRUPTED."""
    svc = SearchService(evaluator=SerialEvaluator(),
                        store=ShardedCheckpointStore(tmp_path / "s"),
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
