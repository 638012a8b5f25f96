"""Trace bookkeeping and JSONL persistence."""

from repro.cluster import Trace, TraceRecord


def record(cid, score, *, ok=True, start=0.0, end=1.0, overhead=0.0):
    return TraceRecord(candidate_id=cid, arch_seq=(cid, 0), score=score,
                       ok=ok, start_time=start, end_time=end,
                       overhead=overhead)


def sample_trace():
    trace = Trace(name="t", scheme="lcs")
    trace.append(record(0, 0.3, start=0.0, end=10.0, overhead=0.5))
    trace.append(record(1, 0.9, start=2.0, end=12.0, overhead=0.25))
    trace.append(record(2, -1e3, ok=False, start=3.0, end=13.0))
    trace.append(record(3, 0.6, start=4.0, end=20.0))
    return trace


def test_ok_records_filters_failures():
    trace = sample_trace()
    assert len(trace) == 4
    assert [r.candidate_id for r in trace.ok_records()] == [0, 1, 3]


def test_best_sorts_by_score():
    best = sample_trace().best(2)
    assert [r.candidate_id for r in best] == [1, 3]


def test_makespan_busy_and_overhead():
    trace = sample_trace()
    assert trace.makespan == 20.0
    assert trace.total_overhead == 0.75
    assert trace.busy_time == sum(r.duration for r in trace)


def test_jsonl_round_trip(tmp_path):
    trace = sample_trace()
    path = trace.save_jsonl(tmp_path / "trace.jsonl")
    loaded = Trace.load_jsonl(path)
    assert loaded.name == trace.name
    assert loaded.scheme == trace.scheme
    assert len(loaded) == len(trace)
    for a, b in zip(loaded, trace):
        assert a == b


def test_transfer_stats_round_trip(tmp_path):
    trace = sample_trace()
    trace.transfer_stats = {"copied_bytes": 4096}
    loaded = Trace.load_jsonl(trace.save_jsonl(tmp_path / "t.jsonl"))
    assert loaded.transfer_stats == trace.transfer_stats
    # absent on traces that never transferred
    bare = Trace.load_jsonl(sample_trace().save_jsonl(tmp_path / "b.jsonl"))
    assert bare.transfer_stats is None
