#!/usr/bin/env python
"""Two tenants on one search service: drive, drain, recover.

Submits two LCS searches on the smoke-sized mnist problem to one
``SearchService`` over a 2-worker ``ThreadPoolEvaluator`` and drives
them on this thread.  Tenant ``bob``'s ``on_record`` callback requests a
drain after its third record: the evaluations in flight land, every
unfinished session ends INTERRUPTED with its journal on disk, and
``drive()`` returns.  A fresh service then ``recover()``s the
interrupted sessions from their journals and drives them to DONE; the
replayed records equal the journaled ones field for field.

Run:  python examples/search_service.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.apps import get_app
from repro.checkpoint import CheckpointStore
from repro.cluster import ThreadPoolEvaluator, TraceJournal
from repro.experiments.config import get_config
from repro.nas import RegularizedEvolution
from repro.service import SearchService, SessionSpec, SessionState

#: tenant -> (search seed, candidates)
TENANTS = {"alice": (1, 8), "bob": (2, 12)}
DRAIN_AFTER = 3


def check(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"FAILED: {message}")


def run(workdir: Path) -> None:
    problem = get_app("mnist").problem(
        seed=0, **get_config("smoke").app_overrides["mnist"])
    store = CheckpointStore(workdir / "ckpts")
    journals = workdir / "journals"

    def spec(tenant: str, on_record=None) -> SessionSpec:
        seed, n = TENANTS[tenant]
        return SessionSpec(
            problem=problem,
            strategy=RegularizedEvolution(problem.space, rng=seed,
                                          population_size=4, sample_size=2),
            num_candidates=n, tenant=tenant, name="search", scheme="lcs",
            seed=seed, on_record=on_record)

    # -- first service: bob's third record drains it -------------------
    with ThreadPoolEvaluator(num_workers=2) as evaluator:
        service = SearchService(evaluator=evaluator, store=store,
                                journal_dir=journals, tenant_quota=1)
        landed = []

        def drain_after(record) -> None:
            landed.append(record.candidate_id)
            if len(landed) == DRAIN_AFTER:
                service.request_drain()

        handles = {"alice": service.submit(spec("alice")),
                   "bob": service.submit(spec("bob", drain_after))}
        service.drive()
    print("first service, drained after bob's record "
          f"#{DRAIN_AFTER}:")
    tenant_of = {}
    for tenant, handle in handles.items():
        status = handle.poll()
        print(f"  {handle.session_id:18s} {status.state:12s} "
              f"{status.completed}/{status.num_candidates} candidates")
        tenant_of[handle.session_id] = tenant
    check(handles["bob"].poll().state == SessionState.INTERRUPTED,
          "bob's session was not interrupted by the drain")

    # -- a fresh service recovers every interrupted session ------------
    recoverable = service.recoverable_sessions()
    journaled = {sid: TraceJournal.replay(journals / m["journal"])[1]
                 for sid, m in recoverable.items()}
    with ThreadPoolEvaluator(num_workers=2) as evaluator:
        revived = SearchService(evaluator=evaluator, store=store,
                                journal_dir=journals, tenant_quota=1)
        recovered = revived.recover({sid: spec(tenant_of[sid])
                                     for sid in recoverable})
        revived.drive()
    print("fresh service, recovered from the journals:")
    for handle in recovered:
        sid, status = handle.session_id, handle.poll()
        trace = handle.result()
        replayed = journaled[sid]
        print(f"  {sid:18s} {status.state:12s} "
              f"{status.completed}/{status.num_candidates} candidates, "
              f"{len(replayed)} replayed, best score "
              f"{trace.best(1)[0].score:.3f}")
        check(status.state == SessionState.DONE, f"{sid} ended {status.state}")
        check(sorted(r.candidate_id for r in trace)
              == list(range(status.num_candidates)),
              f"{sid} did not land every candidate id once")
        check(trace.records[:len(replayed)] == replayed,
              f"{sid}'s replayed records differ from its journal")
    check(revived.recoverable_sessions() == {},
          "a session is still recoverable after recovery")
    print("every interrupted session recovered to DONE.")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="search-service-") as tmp:
        run(Path(tmp))


if __name__ == "__main__":
    main()
