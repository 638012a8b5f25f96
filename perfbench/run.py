"""End-to-end search benchmark with per-layer attribution.

Usage, from the repository root::

    python3 perfbench/run.py --workload evo-cifar10 --seed 1 --seconds 18 --trace 0

``--trace 0`` times rounds with tracing off and prints the end-to-end
metrics; ``--trace 1`` alternates an untraced and a traced round of the
same seed, prints the per-layer metrics of the traced rounds and the
tracing overhead.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 1
when an output check failed and 2 when the program cannot be imported.
See ``perfbench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import os
import sys

#: measurement environment, pinned before numpy is imported; the
#: interpreter re-executes itself once so the hash seed takes effect
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}
if __name__ == "__main__" and any(os.environ.get(k) != v
                                  for k, v in PINNED_ENV.items()):
    os.execve(sys.executable, [sys.executable, *sys.argv],
              {**os.environ, **PINNED_ENV})

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKROOT = ROOT / ".perfbench_work"
SETUP_REPEATS = 3

sys.path.insert(0, str(ROOT / "src"))
try:
    import workloads as wl
    from measure import failed_share, hit_ratio, median, median_items, \
        share, tail_percentile
    from spans import Tracer, instrument
except ImportError as exc:
    print(f"perfbench: cannot import the program under test from "
          f"{ROOT / 'src'}: {exc}", file=sys.stderr)
    sys.exit(2)


def timed_setup(workload, seed: int):
    """Set up ``SETUP_REPEATS`` times; the median seconds and the last
    context."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ctx = workload.setup(seed)
        times.append(time.perf_counter() - t0)
    return median(times), ctx


def end_to_end(rounds, setup_s: float) -> dict:
    """End-to-end metrics over the panel rounds.  Throughput, turnaround
    and quality use each panel seed's median pass: the pass whose wall
    time is the median of its ``REPEATS``.  A candidate's latency is the
    median of its latencies over the passes.  So one slow stretch of the
    machine cannot move a figure.  The run's own round is checked like
    every other, but its cost swings with the architectures its seed
    draws, so it stays out of the figures compared across runs."""
    panel = [rnd for rnd in rounds if rnd.key != "own"]
    passes = median_items(panel, key=lambda rnd: rnd.key,
                          value=lambda rnd: rnd.wall)
    records = [r for rnd in passes for r in rnd.records]
    by_candidate: dict = {}
    for rnd in panel:
        for label, seconds in rnd.latencies.items():
            by_candidate.setdefault((rnd.key, label), []).append(seconds)
    latencies = [1e3 * median(v) for v in by_candidate.values()]
    failed = sum(not r.ok for r in records)
    return {
        "candidates_per_s": (len(records) / sum(r.wall for r in passes),
                             "1/s"),
        "candidate_latency_p50_ms": (tail_percentile(latencies, 50), "ms"),
        "candidate_latency_p90_ms": (tail_percentile(latencies, 90), "ms"),
        "session_turnaround_p50_s": (
            median(t for r in passes for t in r.turnarounds), "s"),
        "score_mean": (statistics.fmean(r.score for r in records if r.ok),
                       "score"),
        "ok_share": (1.0 - failed_share(failed, len(records)), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def per_layer(workload, tracer: Tracer, rounds, untraced_wall: float) \
        -> dict:
    """Per-layer metrics of the traced rounds.  ``*_ms`` are self
    milliseconds per landed record unless noted."""
    n = sum(len(r.records) for r in rounds)
    wall = sum(r.wall for r in rounds)
    capacity = wall * workload.workers
    counts, values = tracer.counts, tracer.values
    delta = {k: sum(r.counters[k] for r in rounds) for k in rounds[0].counters}
    drive = {sp.thread for sp in tracer.spans if sp.name == "round"}
    self_s: Counter = Counter()          # by span name, every thread
    drive_self: Counter = Counter()      # by layer, drive thread only
    for sp, t in tracer.self_times():
        self_s[sp.name] += t
        if sp.thread in drive:
            drive_self[sp.layer] += t
    root_self = drive_self["round"]
    loop_self = self_s["cluster.submit_next"] + self_s["cluster.complete"] \
        + self_s["cluster.task"] + (0.0 if workload.service else root_self)

    def per_rec(name):
        return 1e3 * share(self_s[name], n)

    def spans_named(name):
        return [sp for sp in tracer.spans if sp.name == name]

    submits = spans_named("service.submit")
    metrics = {
        "nas.ask_ms": (per_rec("nas.ask"), "ms"),
        "nas.tell_ms": (per_rec("nas.tell"), "ms"),
        "nas.build_ms": (per_rec("nas.build"), "ms"),
        "transfer.select_ms": (per_rec("transfer.select"), "ms"),
        "transfer.copy_ms": (per_rec("transfer.copy"), "ms"),
        "transfer.copied_mb": (share(counts["copied_bytes"], n) / 1e6, "MB"),
        "transfer.match_hit_ratio": (
            hit_ratio(delta["match_hits"], delta["match_misses"]), "ratio"),
        "transfer.coverage_mean": (
            statistics.fmean(values["coverage"]) if values["coverage"]
            else 0.0, "ratio"),
        "transfer.bind_ms": (per_rec("transfer.bind"), "ms"),
        "checkpoint.save_ms": (per_rec("checkpoint.save"), "ms"),
        "checkpoint.load_ms": (per_rec("checkpoint.load"), "ms"),
        "checkpoint.saved_mb": (share(counts["saved_bytes"], n) / 1e6, "MB"),
        "checkpoint.io_blocked_share": (
            share(drive_self["checkpoint"], wall), "ratio"),
        "checkpoint.cache_hit_ratio": (
            hit_ratio(counts["cache_hits"], counts["cache_misses"]),
            "ratio"),
        "tensor.fit_ms": (per_rec("tensor.fit"), "ms"),
        "tensor.evaluate_ms": (per_rec("tensor.evaluate"), "ms"),
        "tensor.fit_share": (share(self_s["tensor.fit"], capacity), "ratio"),
        "tensor.plan_hit_ratio": (
            hit_ratio(delta["plan_hits"], delta["plan_misses"]), "ratio"),
        "tensor.plan_traces": (delta["plan_traces"], "count"),
        "cluster.loop_self_ms": (1e3 * share(loop_self, n), "ms"),
        "cluster.queue_wait_ms": (
            1e3 * statistics.fmean(values["queue_wait"]), "ms"),
        "cluster.journal_append_ms": (per_rec("cluster.journal"), "ms"),
        "cluster.worker_busy_share": (
            share(sum(sp.duration for sp in spans_named("cluster.task")),
                  capacity), "ratio"),
        "cluster.retries": (counts["dispatches"]
                            - len(spans_named("cluster.submit_next")),
                            "count"),
        "cluster.injected_faults": (counts["injected_faults"], "count"),
        "analysis.proxy_ms": (per_rec("analysis.proxy"), "ms"),
        "analysis.proxy_reject_share": (wl.proxy_reject_share(rounds),
                                        "ratio"),
        "service.submit_ms": (
            1e3 * statistics.fmean(sp.duration for sp in submits)
            if submits else 0.0, "ms"),
        "service.idle_wait_share": (
            share(sum(sp.duration for sp in spans_named("cluster.wait")
                      if sp.thread in drive), wall), "ratio"),
        "service.drive_self_share": (
            share(root_self, wall) if workload.service else 0.0, "ratio"),
        "trace.overhead_s": (wall - untraced_wall, "s"),
    }
    shares = {layer: round(share(t, wall), 4)
              for layer, t in sorted(drive_self.items())}
    print(f"# drive-thread self-time shares of wall: {json.dumps(shares)}")
    return metrics


def check_same_scores(key, plain, traced) -> None:
    """Tracing must not change what the search computes."""
    mismatch = [(a.candidate_id, a.score, b.score)
                for a, b in zip(plain.records, traced.records)
                if a.score != b.score]
    if mismatch or len(plain.records) != len(traced.records):
        traced.failures.append(f"round {key}: traced scores differ from "
                               f"untraced {mismatch[:3]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    print("# env: " + json.dumps({
        **{k: os.environ.get(k) for k in PINNED_ENV},
        "python": sys.version.split()[0], "workers": wl.workers(),
        "workload": args.workload, "seed": args.seed}))
    workload = wl.WORKLOADS[args.workload]()
    WORKROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=WORKROOT))
    try:
        setup_s, ctx = timed_setup(workload, args.seed)
        measured, checked, untraced_wall = [], [], 0.0
        tracer = Tracer()
        for key, problem, seed in workload.schedule(
                ctx, args.seed, args.seconds, args.trace):
            plain = workload.run_round(problem, seed, workdir)
            plain.key = key
            checked.append(plain)
            if args.trace:
                with instrument(tracer):
                    traced = workload.run_round(problem, seed, workdir,
                                                tracer)
                checked.append(traced)
                untraced_wall += plain.wall
                if not workload.service:
                    check_same_scores(key, plain, traced)
            measured.append(traced if args.trace else plain)
            gc.collect()        # the round's cycles, outside its timing
        failures = [f for rnd in checked for f in rnd.failures]
        attempted = sum(len(rnd.records) for rnd in checked)
        failed = sum(not rec.ok for rnd in checked for rec in rnd.records)
        if args.trace:
            metrics = per_layer(workload, tracer, measured, untraced_wall)
            tracer.dump(WORKROOT / f"spans-{args.workload}-s{args.seed}"
                        f".jsonl")
        else:
            metrics = end_to_end(measured, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for f in failures:
        print(f"# CHECK FAILED: {f}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
