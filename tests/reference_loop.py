"""The synchronous search loop the driver's checkpoint I/O is held to.

One candidate at a time: ask, pick the provider among the records told
so far, load its checkpoint from disk (a corrupt one is quarantined and
the candidate cold-starts, as do its later siblings), train, save, tell.  No evaluator, no cache,
no write-behind: whatever the driver does with its I/O, it must decide
what this loop decides.
"""

import numpy as np

from repro.checkpoint import CorruptCheckpointError
from repro.cluster import Trace, TraceRecord, checkpoint_key
from repro.nas import estimate_candidate
from repro.transfer.policy import get_policy


def synchronous_search(problem, strategy, num_candidates, *, store,
                       scheme="lcs", seed=0):
    policy = get_policy("parent")
    rng = np.random.default_rng(seed)
    trace = Trace(name=f"{problem.name}-{scheme}", scheme=scheme)
    copied = 0
    for candidate_id in range(num_candidates):
        proposal = strategy.ask()
        record = TraceRecord(
            candidate_id=candidate_id, arch_seq=tuple(proposal.arch_seq),
            score=float("nan"), scheme=scheme, parent_id=proposal.parent_id)
        weights = None
        provider = policy.select(proposal, trace.ok_records(), rng)
        if provider is not None:
            key = checkpoint_key(provider)
            try:
                weights = store.load(key)
            except CorruptCheckpointError:
                store.quarantine(key)
            except FileNotFoundError:
                pass                      # quarantined for an earlier child
            else:
                record.provider_id = provider
        result = estimate_candidate(
            problem, record.arch_seq, seed=seed + candidate_id,
            provider_weights=weights, matcher=scheme, keep_weights=True)
        record.ok, record.score = result.ok, result.score
        if result.transfer_stats is not None:
            record.transferred = result.transfer_stats.transferred
            record.transfer_coverage = result.transfer_stats.coverage
            copied += result.transfer_stats.copied_bytes
        if result.ok:
            record.ckpt_bytes = store.save(
                checkpoint_key(candidate_id), result.weights).nbytes
        strategy.tell(candidate_id, record.arch_seq, record.score)
        trace.append(record)
    trace.transfer_stats = {"copied_bytes": int(copied)}
    return trace
