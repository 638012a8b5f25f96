"""Ablation — does the LCS speedup survive injected faults?

The same seeded searches as ``python -m repro.experiments.runner
ablation-faults``: a chaos wrapper crashes attempts on the simulated
cluster and a truncating store corrupts checkpoints on disk.
"""

import time

from conftest import run_once

from repro.checkpoint import CheckpointStore
from repro.cluster import SimulatedCluster, run_search
from repro.experiments import format_ablation_faults, run_ablation_faults
from repro.experiments.faults import FAULT_RATES, fault_search
from repro.nas import RegularizedEvolution


def decisions(trace):
    return [(r.candidate_id, r.arch_seq, r.score, r.provider_id,
             r.parent_id) for r in trace]


def test_ablation_faults(benchmark, ctx, monkeypatch, tmp_path):
    slept = []
    monkeypatch.setattr(time, "sleep", slept.append)
    result = run_once(benchmark, run_ablation_faults, ctx, ctx.config.apps)
    print("\n" + format_ablation_faults(result))
    # retries book backoff on the virtual clock; nothing sleeps it
    assert sum(r.retries for r in result.rows) > 0
    assert slept == []

    quarantined = 0
    for app in ctx.config.apps:
        # the clean row is the search without a chaos wrapper
        clean, _ = fault_search(ctx, app, "lcs", 0.0, 0.0)
        problem = ctx.problem(app)
        bare = run_search(
            problem,
            RegularizedEvolution(problem.space, rng=7,
                                 population_size=ctx.config.population_size,
                                 sample_size=ctx.config.sample_size),
            ctx.config.num_candidates, scheme="lcs", seed=7,
            store=CheckpointStore(tmp_path / app),
            evaluator=SimulatedCluster(num_gpus=ctx.default_gpus))
        assert decisions(clean) == decisions(bare)
        assert result.row(app, 0.0, "lcs").makespan == bare.makespan

        # every quarantined checkpoint is one the disk corrupted
        trace, store = fault_search(ctx, app, "lcs", *FAULT_RATES[-1])
        keys = store.quarantined_keys()
        assert set(keys) <= set(store.corrupted)
        assert (trace.fault_stats or {}).get("quarantined", 0) == len(keys)
        quarantined += len(keys)
    assert quarantined > 0
