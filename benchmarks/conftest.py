"""Shared fixtures for the benchmark harness.

All table/figure benchmarks share one smoke-scale ExperimentContext so
the NAS traces, checkpoints and full-training results are generated once
per session and reused — exactly how the experiments share data in the
paper (Figures 7/8/9 and Tables III/IV all consume the same runs).

Run with::

    pytest benchmarks/ --benchmark-only

Each benchmark prints the regenerated paper table; use ``-s`` to see them.
"""

from __future__ import annotations

import pytest

from repro.experiments import ExperimentContext


@pytest.fixture(scope="session")
def ctx(tmp_path_factory) -> ExperimentContext:
    workdir = tmp_path_factory.mktemp("bench-experiments")
    return ExperimentContext("smoke", workdir=workdir)


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under the benchmark timer.

    Experiment harnesses are minutes-long; pytest-benchmark's default
    calibration would re-run them dozens of times.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
