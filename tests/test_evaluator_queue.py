"""Evaluator wait_any via the done-queue: O(1) pops, order-robust.

The thread-pool evaluator used to re-scan every outstanding future with
``cf.wait`` on each ``wait_any`` call (O(n) per wait, O(n^2) per run);
completions now flow through a done-callback into a queue.  These tests
pin the interface contract the scheduler relies on: ticket/result pairs
match regardless of completion order, ``in_flight`` tracks outstanding
work, and instantly finishing tasks are still matched to their ticket.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.cluster.evaluator import SerialEvaluator, ThreadPoolEvaluator


def _square(x):
    return x * x


class _Sleeper:
    """Task that sleeps then returns its tag."""

    def __init__(self, delay, tag):
        self.delay = delay
        self.tag = tag

    def __call__(self):
        time.sleep(self.delay)
        return self.tag


@pytest.mark.parametrize("make", [SerialEvaluator,
                                  lambda: ThreadPoolEvaluator(num_workers=4)])
def test_tickets_match_results(make):
    with make() as ev:
        tickets = {ev.submit(lambda v=v: _square(v)): v for v in range(8)}
        seen = {}
        while ev.in_flight:
            ticket, result = ev.wait_any()
            seen[ticket] = result
    assert seen == {t: v * v for t, v in tickets.items()}


def test_out_of_order_completion_matches_tickets():
    with ThreadPoolEvaluator(num_workers=3) as ev:
        t_slow = ev.submit(_Sleeper(0.20, "slow"))
        t_fast = ev.submit(_Sleeper(0.0, "fast"))
        first = ev.wait_any()
        second = ev.wait_any()
    assert first == (t_fast, "fast")
    assert second == (t_slow, "slow")


def test_instantly_finished_task_found_by_ticket():
    """The future must be registered before the done-callback is wired,
    otherwise a task that completes during submit loses its ticket."""
    with ThreadPoolEvaluator(num_workers=1) as ev:
        ticket = ev.submit(lambda: "done")
        time.sleep(0.05)  # let the callback fire before wait_any
        assert ev.wait_any() == (ticket, "done")


def test_in_flight_counts_down():
    release = threading.Event()
    with ThreadPoolEvaluator(num_workers=2) as ev:
        for _ in range(3):
            ev.submit(release.wait)
        assert ev.in_flight == 3
        release.set()
        for expected in (2, 1, 0):
            ev.wait_any()
            assert ev.in_flight == expected


def test_wait_any_without_pending_raises():
    for ev in (SerialEvaluator(), ThreadPoolEvaluator(num_workers=1)):
        with ev, pytest.raises(RuntimeError):
            ev.wait_any()


def test_many_waits_drain_quickly():
    """Smoke for the O(n^2) fix: hundreds of submit/wait cycles complete
    promptly (the old path re-waited on every live future each call)."""
    n = 300
    t0 = time.perf_counter()
    with ThreadPoolEvaluator(num_workers=8) as ev:
        for v in range(n):
            ev.submit(lambda v=v: v)
        got = sorted(ev.wait_any()[1] for _ in range(n))
    assert got == list(range(n))
    assert time.perf_counter() - t0 < 10.0
