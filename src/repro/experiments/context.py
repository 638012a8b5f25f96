"""Shared state for the experiment harnesses.

One :class:`ExperimentContext` is created per session (see
``benchmarks/conftest.py``) and caches everything the figures share, the
way the paper's figures share runs: the NAS traces (Figs 7/10/11 and the
top-K selection), the per-candidate checkpoints, the full-training
results (Fig 8, Tables III/IV, Fig 9) and the Fig 4/5 random-pair study.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

import numpy as np

from ..apps import get_app
from ..checkpoint import CheckpointStore
from ..cluster import SimulatedCluster, Trace, checkpoint_key, run_search
from ..nas import RegularizedEvolution, estimate_candidate, full_train
from .config import ExperimentConfig, get_config


class ExperimentContext:
    def __init__(self, scale: str = "smoke", workdir=None,
                 config: Optional[ExperimentConfig] = None):
        self.config = config or get_config(scale)
        self.workdir = Path(workdir) if workdir is not None else \
            Path("results") / self.config.name
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._problems: dict = {}
        self._traces: dict = {}
        self._full: dict = {}
        self._pairs: dict = {}

    # ------------------------------------------------------------------
    # problems and stores
    # ------------------------------------------------------------------
    def problem(self, app: str, seed: int = 0):
        key = (app, seed)
        if key not in self._problems:
            overrides = self.config.app_overrides.get(app, {})
            self._problems[key] = get_app(app).problem(seed=seed, **overrides)
        return self._problems[key]

    def run_name(self, app: str, scheme: str, gpus: int, seed: int) -> str:
        return (f"{app}_{scheme}_s{seed}_g{gpus}"
                f"_n{self.config.num_candidates}")

    def store(self, app: str, scheme: str, gpus: Optional[int] = None,
              seed: int = 0) -> Optional[CheckpointStore]:
        """The run's checkpoint store; None for the baseline scheme
        (DESIGN.md: the baseline does not checkpoint)."""
        if scheme == "baseline":
            return None
        gpus = self.default_gpus if gpus is None else gpus
        return CheckpointStore(
            self.workdir / "ckpt" / self.run_name(app, scheme, gpus, seed))

    @property
    def default_gpus(self) -> int:
        return self.config.gpu_counts[-1]

    # ------------------------------------------------------------------
    # NAS estimation runs (shared by Figs 7/9/10/11, Tables III/IV)
    # ------------------------------------------------------------------
    def trace(self, app: str, scheme: str, gpus: Optional[int] = None,
              seed: int = 0) -> Trace:
        gpus = self.default_gpus if gpus is None else gpus
        key = (app, scheme, gpus, seed)
        if key in self._traces:
            return self._traces[key]
        cache = self.workdir / "traces" / \
            f"{self.run_name(app, scheme, gpus, seed)}.jsonl"
        if cache.exists():
            trace = Trace.load_jsonl(cache)
        else:
            problem = self.problem(app, seed=seed)
            strategy = RegularizedEvolution(
                problem.space, rng=seed,
                population_size=self.config.population_size,
                sample_size=self.config.sample_size,
            )
            trace = run_search(
                problem, strategy, self.config.num_candidates,
                scheme=scheme, seed=seed,
                store=self.store(app, scheme, gpus, seed),
                evaluator=SimulatedCluster(
                    num_gpus=gpus, cost_model=get_app(app).cost_model()),
                name=f"{problem.name}-{scheme}-g{gpus}",
            )
            trace.save_jsonl(cache)
        self._traces[key] = trace
        return trace

    def top_records(self, app: str, scheme: str, k: Optional[int] = None,
                    seed: int = 0) -> list:
        k = self.config.top_k if k is None else k
        return self.trace(app, scheme, seed=seed).best(k)

    # ------------------------------------------------------------------
    # full training (phase 2) — shared by Fig 8/9, Tables III/IV
    # ------------------------------------------------------------------
    def full(self, app: str, scheme: str, record, seed: int = 0):
        """Fully train a trace record's architecture, warm-started from
        its partial-training checkpoint for the transfer schemes."""
        key = (app, scheme, record.candidate_id, seed)
        if key in self._full:
            return self._full[key]
        problem = self.problem(app, seed=seed)
        initial = None
        store = self.store(app, scheme, seed=seed)
        if store is not None and \
                store.exists(checkpoint_key(record.candidate_id)):
            initial = store.load(checkpoint_key(record.candidate_id))
        result = full_train(problem, record.arch_seq, seed=seed,
                            initial_weights=initial)
        self._full[key] = result
        return result

    # ------------------------------------------------------------------
    # random-pair transfer study — shared by Figs 4/5
    # ------------------------------------------------------------------
    def pair_study(self, app: str, seed: int = 0) -> list:
        """For ``n_pairs`` provider/receiver pairs at varied architecture
        distance: per matcher, whether anything transferred and the
        warm-vs-cold one-epoch score delta.  Returns dicts with keys
        app/distance/matcher results."""
        key = (app, seed)
        if key in self._pairs:
            return self._pairs[key]
        problem = self.problem(app, seed=seed)
        space = problem.space
        rng = np.random.default_rng(seed + 17)
        pairs = []
        for i in range(self.config.n_pairs):
            provider_seq = space.sample(rng)
            n_mut = int(rng.integers(1, space.num_variable_nodes + 1))
            receiver_seq = space.mutate(provider_seq, rng,
                                        num_mutations=n_mut)
            provider = estimate_candidate(
                problem, provider_seq, seed=seed + i, keep_weights=True)
            if not provider.ok:
                continue
            cold = estimate_candidate(problem, receiver_seq, seed=seed + i)
            if not cold.ok:
                continue
            entry = {
                "app": app,
                "distance": space.distance(provider_seq, receiver_seq),
                "matchers": {},
            }
            for matcher in ("lp", "lcs"):
                warm = estimate_candidate(
                    problem, receiver_seq, seed=seed + i,
                    provider_weights=provider.weights, matcher=matcher)
                entry["matchers"][matcher] = {
                    "transferred": bool(warm.transfer_stats.transferred),
                    "coverage": float(warm.transfer_stats.coverage),
                    "delta": float(warm.score - cold.score),
                    "ok": warm.ok,
                }
            pairs.append(entry)
        self._pairs[key] = pairs
        return pairs

    def __repr__(self):
        return (f"<ExperimentContext scale={self.config.name} "
                f"workdir={self.workdir}>")
