"""Tests of the benchmark's own metric code.

    python3 -m pytest perfbench
"""

import threading

import pytest
from measure import (
    CounterSnapshot,
    failed_share,
    hit_ratio,
    median_items,
    quartile_spread,
    self_time,
    share,
    tail_percentile,
    union_length,
)
from spans import Tracer


# -- percentile with at least ten samples beyond it ---------------------
def test_p90_needs_one_hundred_samples():
    assert tail_percentile(range(1, 101), 90) == 90      # 10 beyond
    with pytest.raises(ValueError, match="9 beyond"):
        tail_percentile(range(1, 100), 90)


def test_p50_needs_twenty_samples():
    assert tail_percentile(range(20), 50) == 9
    with pytest.raises(ValueError):
        tail_percentile(range(19), 50)


def test_percentile_is_nearest_rank_on_unsorted_input():
    values = list(range(200, 0, -1))
    assert tail_percentile(values, 90) == 180
    assert tail_percentile(values, 50) == 100


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        tail_percentile([], 50)
    with pytest.raises(ValueError):
        tail_percentile(range(1000), 100)


# -- denominators ---------------------------------------------------------
def test_failed_share_counts_against_attempted():
    assert failed_share(0, 16) == 0.0
    assert failed_share(4, 16) == 0.25
    assert failed_share(16, 16) == 1.0       # all failed, not 0/0 of ok
    assert failed_share(0, 0) == 0.0
    with pytest.raises(ValueError):
        failed_share(3, 2)


def test_ratios_divide_by_lookups():
    assert hit_ratio(3, 1) == 0.75
    assert hit_ratio(0, 5) == 0.0
    assert hit_ratio(0, 0) == 0.0
    assert share(1.0, 4.0) == 0.25
    assert share(1.0, 0.0) == 0.0


def test_quartile_spread_is_iqr_over_median():
    assert quartile_spread([10.0] * 10) == 0.0
    spread = quartile_spread(list(range(1, 11)))
    assert spread == pytest.approx((8.25 - 2.75) / 5.5)


def test_median_items_picks_each_groups_median_pass():
    passes = [("a", 3.0), ("b", 9.0), ("a", 1.0), ("b", 2.0), ("a", 2.0),
              ("b", 30.0)]
    picked = median_items(passes, key=lambda p: p[0], value=lambda p: p[1])
    assert picked == [("a", 2.0), ("b", 9.0)]
    two = median_items([("c", 5.0), ("c", 4.0)], key=lambda p: p[0],
                       value=lambda p: p[1])
    assert two == [("c", 4.0)]                 # lower median of an even group


# -- counter deltas --------------------------------------------------------
def test_counter_snapshot_subtracts_the_history_of_a_warm_process():
    counters = {"hits": 10, "misses": 182}
    snap = CounterSnapshot(lambda: dict(counters))
    counters["hits"] += 8
    counters["misses"] += 184
    assert snap.delta() == {"hits": 8, "misses": 184}


def test_counter_snapshot_sees_counters_that_appear_later():
    counters = {"hits": 2}
    snap = CounterSnapshot(lambda: dict(counters))
    counters["traces"] = 3
    assert snap.delta() == {"hits": 0, "traces": 3}


# -- self time ------------------------------------------------------------
def test_union_merges_overlaps():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([]) == 0


def test_self_time_clips_children_to_the_span():
    assert self_time(0, 10, [(2, 4), (3, 5), (9, 12)]) == 10 - 3 - 1


def test_tracer_self_time_ignores_children_on_other_threads():
    tracer = Tracer()

    def task():
        with tracer.span("cluster.task", parent=root):
            pass

    with tracer.span("round") as root:
        with tracer.span("nas.ask"):
            pass
        worker = threading.Thread(target=task)
        worker.start()
        worker.join()
    by_name = {sp.name: t for sp, t in tracer.self_times()}
    ask, task_span = (next(sp for sp in tracer.spans if sp.name == name)
                      for name in ("nas.ask", "cluster.task"))
    assert task_span.parent is root
    assert by_name["round"] == pytest.approx(root.duration - ask.duration)


def test_wrapped_calls_nest_and_carry_the_candidate():
    tracer = Tracer()
    inner = tracer.wrap("tensor.fit", lambda: 1)
    outer = tracer.wrap("cluster.submit_next", lambda c: inner(),
                        candidate=lambda args: f"s#{args[0]}")
    assert outer(7) == 1
    fit, submit = tracer.spans
    assert fit.parent is submit and fit.candidate == "s#7"
    assert submit.parent is None
