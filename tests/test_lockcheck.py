"""Runtime lock sanitizer: every lock is a leaf, re-entry is caught.

Tests that provoke violations use a **private** registry so the global
one (asserted clean by the conftest teardown fixture under
``REPRO_LOCKCHECK=1``) never records them.
"""

import json
import sys
import threading

import pytest

from repro.analysis import lockcheck
from repro.analysis.lockcheck import (
    LockCheckError,
    LockCheckRegistry,
    SanitizedLock,
    make_lock,
)


@pytest.fixture()
def reg():
    return LockCheckRegistry()


def test_basic_acquire_release(reg):
    lock = SanitizedLock("t.basic", reg=reg)
    assert not lock.locked()
    with lock:
        assert lock.locked()
        assert reg.held_names() == ["t.basic"]
    assert not lock.locked()
    assert reg.held_names() == []
    assert reg.violations() == []
    assert reg.acquisitions == 1


def test_nested_acquire_raises(reg):
    a = SanitizedLock("t.a", reg=reg)
    b = SanitizedLock("t.b", reg=reg)
    with a:
        with pytest.raises(LockCheckError, match="must be a leaf"):
            b.acquire()
        assert not b.locked()               # raised before blocking
    (v,) = reg.violations()
    assert (v["kind"], v["lock"], v["held"]) == ("nested", "t.b", ["t.a"])
    with b:                                 # a leaf again once a is free
        assert reg.held_names() == ["t.b"]


def _nest(outer, inner, errors):
    with outer:
        try:
            with inner:
                pass
        except LockCheckError as exc:
            errors.append(exc)


def test_ab_ba_inversion_across_two_threads(reg):
    """The canonical AB/BA deadlock shape, taken sequentially so the
    test itself cannot deadlock: each thread's inner acquire raises
    before it blocks, so neither half of the inversion ever holds two
    locks."""
    a = SanitizedLock("t.a", reg=reg)
    b = SanitizedLock("t.b", reg=reg)
    errors: list = []
    for outer, inner in ((a, b), (b, a)):
        t = threading.Thread(target=_nest, args=(outer, inner, errors))
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
    assert len(errors) == 2
    assert [(v["kind"], v["held"], v["lock"]) for v in reg.violations()] \
        == [("nested", ["t.a"], "t.b"), ("nested", ["t.b"], "t.a")]


def test_same_thread_inversion_also_detected(reg):
    a = SanitizedLock("t.a", reg=reg)
    b = SanitizedLock("t.b", reg=reg)
    errors: list = []
    _nest(a, b, errors)
    _nest(b, a, errors)
    assert len(errors) == 2
    assert [v["kind"] for v in reg.violations()] == ["nested", "nested"]
    assert reg.held_names() == []


def test_reentry_on_plain_lock_raises(reg):
    lock = SanitizedLock("t.plain", reg=reg)
    with lock:
        with pytest.raises(LockCheckError, match="re-acquired"):
            lock.acquire()
    assert [v["kind"] for v in reg.violations()] == ["reentry"]


def test_same_name_instance_pair_is_flagged(reg):
    # two instances of one class's lock nest as surely as two classes do
    l1 = SanitizedLock("t.shard", reg=reg)
    l2 = SanitizedLock("t.shard", reg=reg)
    with l1:
        with pytest.raises(LockCheckError):
            l2.acquire()
    assert [v["kind"] for v in reg.violations()] == ["nested"]


def test_report_and_dump(tmp_path, reg):
    a = SanitizedLock("t.a", reg=reg)
    b = SanitizedLock("t.b", reg=reg)
    with a:
        pass
    with b:
        pass
    assert reg.report() == {"acquisitions": 2, "violations": []}
    path = tmp_path / "lockcheck.json"
    reg.dump(path)
    assert json.loads(path.read_text())["acquisitions"] == 2


def test_reset(reg):
    a = SanitizedLock("t.a", reg=reg)
    with a:
        with pytest.raises(LockCheckError):
            a.acquire()
    reg.reset()
    assert reg.report() == {"acquisitions": 0, "violations": []}


def test_timeout_and_nonblocking_acquire(reg):
    lock = SanitizedLock("t.t", reg=reg)
    assert lock.acquire(blocking=False)
    done = []

    def contender():
        done.append(lock.acquire(blocking=False))

    t = threading.Thread(target=contender)
    t.start()
    t.join()
    assert done == [False]
    assert reg.held_names() == ["t.t"]   # failed acquire not recorded
    lock.release()


def test_make_lock_disabled_returns_plain_locks(monkeypatch):
    monkeypatch.delenv("REPRO_LOCKCHECK", raising=False)
    assert not lockcheck.enabled()
    assert not isinstance(make_lock("t.x"), SanitizedLock)
    # plain locks still support the full surface used in the repo
    lock = make_lock("t.x")
    with lock:
        pass


def test_make_lock_env_enables_sanitizer(monkeypatch):
    monkeypatch.setenv("REPRO_LOCKCHECK", "1")
    assert lockcheck.enabled()
    lock = make_lock("t.env")
    assert isinstance(lock, SanitizedLock)


def test_force_enables_programmatically(monkeypatch):
    monkeypatch.delenv("REPRO_LOCKCHECK", raising=False)
    lockcheck.force(True)
    try:
        assert isinstance(make_lock("t.forced"), SanitizedLock)
    finally:
        lockcheck.force(False)
    assert not isinstance(make_lock("t.forced"), SanitizedLock)


def test_sanitized_locks_work_under_real_concurrency(reg):
    """Smoke: 4 threads hammering one sanitized lock stay correct."""
    lock = SanitizedLock("t.hammer", reg=reg)
    state = {"n": 0}

    def worker():
        for _ in range(200):
            with lock:
                state["n"] += 1

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert state["n"] == 800
    assert reg.violations() == []
    assert reg.acquisitions == 800


def test_acquisition_count_is_exact_across_distinct_locks(reg):
    """Threads taking *different* sanitized locks share only the
    registry's counter, which must not lose an increment."""
    locks = [SanitizedLock(f"t.own{i}", reg=reg) for i in range(8)]

    def worker(lock):
        for _ in range(2000):
            with lock:
                pass

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(lock,))
                   for lock in locks]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert reg.violations() == []
    assert reg.acquisitions == 8 * 2000
