#!/usr/bin/env python
"""Checkpointing extension: async write-behind (one of the paper's
Section IX/X complementary directions).

Measures, on a real model checkpoint, the synchronous save latency
against the enqueue latency of the write-behind writer, and the
checkpoint's size on disk.

Run:  python examples/checkpoint_tiers.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np

from repro.apps import get_app
from repro.checkpoint import AsyncCheckpointWriter, CheckpointStore


def main() -> None:
    problem = get_app("nt3").problem(seed=0, n_train=64, n_val=16)
    model = problem.build_model(problem.space.sample(np.random.default_rng(0)))
    weights = model.get_weights()
    nbytes = sum(w.nbytes for w in weights.values())
    print(f"model: {model.num_parameters()} parameters, "
          f"{len(weights)} tensors, {nbytes / 1e6:.1f} MB in memory\n")

    root = Path(tempfile.mkdtemp(prefix="ckpt-tiers-"))

    # 1. sync vs async save latency
    sync_store = CheckpointStore(root / "sync")
    t0 = time.perf_counter()
    for i in range(10):
        sync_store.save(f"cand_{i}", weights)
    sync_s = (time.perf_counter() - t0) / 10

    async_store = CheckpointStore(root / "async")
    with AsyncCheckpointWriter(async_store) as writer:
        t0 = time.perf_counter()
        saves = [writer.save(f"cand_{i}", weights) for i in range(10)]
        enqueue_s = (time.perf_counter() - t0) / 10
        t0 = time.perf_counter()
        writer.flush()
        drain_s = time.perf_counter() - t0
    for save in saves:
        save.result()             # each save's future raises its own error
    print(f"synchronous save:        {1000 * sync_s:7.1f} ms/checkpoint")
    print(f"write-behind enqueue:    {1000 * enqueue_s:7.1f} ms/checkpoint "
          f"(+{1000 * drain_s:.0f} ms off the critical path)")
    print(f"checkpoint size on disk: {sync_store.nbytes('cand_0') / 1e6:7.2f} MB")
    print("\nI/O moved off the critical path shrinks the transfer-scheme")
    print("overhead that Figure 10 charges against NT3-style applications.")


if __name__ == "__main__":
    main()
