"""Layer spans recorded from outside the program.

:func:`instrument` swaps the public functions of each layer for timing
wrappers and puts the originals back on exit; nothing in ``src/`` knows
it is being traced.  A span is ``(name, start, end, parent, candidate,
thread)``: the parent is the span that was open on the calling thread
(or, for an evaluation task, the span that submitted it), the candidate
is ``"<search name>#<candidate id>"`` set by ``SearchDriver.submit_next``
and carried into the task.  Spans stay in memory until
:meth:`Tracer.dump` writes them out at the end of the run.

Span names are ``<layer>.<what>`` with the repo's module names as
layers: ``nas``, ``transfer``, ``checkpoint``, ``tensor``, ``cluster``,
``analysis`` and ``service``; ``round`` is the benchmark's own root span
on the drive thread.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Optional

from measure import self_time


class Span:
    __slots__ = ("name", "start", "end", "parent", "candidate", "thread")

    def __init__(self, name, start, parent, candidate, thread):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.candidate = candidate
        self.thread = thread

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.values: defaultdict = defaultdict(list)
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- recording ------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    @property
    def candidate(self) -> Optional[str]:
        return getattr(self._local, "candidate", None)

    @contextmanager
    def span(self, name: str, parent: Optional[Span] = None,
             candidate: Optional[str] = None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        if candidate is not None:
            outer, self._local.candidate = self.candidate, candidate
        sp = Span(name, time.perf_counter(), parent,
                  self.candidate, threading.get_ident())
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            if candidate is not None:
                self._local.candidate = outer
            self.spans.append(sp)

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def note(self, key: str, value: float) -> None:
        with self._lock:
            self.values[key].append(value)

    # -- wrapping -------------------------------------------------------
    def wrap(self, name: str, fn: Callable, *,
             on_result: Optional[Callable] = None,
             candidate: Optional[Callable] = None) -> Callable:
        """``fn`` timed as span ``name``.  ``on_result(result, span,
        args)`` sees every return value; ``candidate(args)`` names the
        candidate the call works on."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cand = candidate(args) if candidate is not None else None
            with tracer.span(name, candidate=cand) as sp:
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result, sp, args)
            return result
        return traced

    def wrap_evaluator(self, evaluator) -> None:
        """Instance-level wrappers on one evaluator: ``submit`` times
        the queue wait (submit to task start) and wraps the task in a
        ``cluster.task`` span; ``wait_any`` is a ``cluster.wait`` span."""
        from repro.cluster.resilience import InjectedFault

        tracer = self
        submit, wait_any = evaluator.submit, evaluator.wait_any

        def traced_submit(task):
            t_submit = time.perf_counter()
            parent, cand = tracer.current, tracer.candidate
            tracer.count("dispatches")

            def run():
                tracer.note("queue_wait", time.perf_counter() - t_submit)
                with tracer.span("cluster.task", parent=parent,
                                 candidate=cand):
                    try:
                        return task()
                    except InjectedFault:
                        tracer.count("injected_faults")
                        raise
            return submit(run)

        evaluator.submit = traced_submit
        evaluator.wait_any = self.wrap("cluster.wait", wait_any)

    # -- output ---------------------------------------------------------
    def dump(self, path) -> None:
        """Write every span as one jsonl line (parent by index)."""
        index = {id(sp): i for i, sp in enumerate(self.spans)}
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps({
                    "name": sp.name, "start": sp.start, "end": sp.end,
                    "parent": index.get(id(sp.parent)),
                    "candidate": sp.candidate, "thread": sp.thread,
                }) + "\n")

    def self_times(self) -> list[tuple[Span, float]]:
        """Every span with its self time.  Only same-thread children
        count against a span: a task submitted to a worker thread runs
        beside its submitter, not inside it."""
        children: dict = defaultdict(list)
        for sp in self.spans:
            if sp.parent is not None and sp.parent.thread == sp.thread:
                children[id(sp.parent)].append((sp.start, sp.end))
        return [(sp, self_time(sp.start, sp.end, children.get(id(sp), ())))
                for sp in self.spans]


def _patch(patches: list, owner, attr: str, replacement) -> None:
    patches.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, replacement)


def _driver_candidate(args) -> str:
    driver = args[0]
    return f"{driver.trace.name}#{driver.submitted}"


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the public entry points of every layer for the duration of
    the block.  Module attributes are patched where the caller looks
    them up (``repro.nas.estimation.fit`` is the name
    ``estimate_candidate`` calls)."""
    import repro.cluster.scheduler as scheduler_mod
    import repro.nas.estimation as estimation_mod
    from repro.analysis.zerocost import ZeroCostGate
    from repro.checkpoint import (
        AsyncCheckpointWriter,
        CheckpointStore,
        ShardedCheckpointStore,
        WeightCache,
    )
    from repro.cluster import SearchDriver, TraceJournal
    from repro.nas import Problem, RegularizedEvolution
    from repro.service import SearchService
    from repro.transfer.policy import ParentProvider
    from repro.transfer.supernet import SupernetTransferBackend

    def saved_bytes(info, sp, args):
        # a sharded save nests a shard save: count the outer one only
        if info is not None and (sp.parent is None
                                 or sp.parent.name != sp.name):
            tracer.count("saved_bytes", info.nbytes)

    def copied(stats, sp, args):
        tracer.count("copied_bytes", stats.copied_bytes)
        tracer.note("coverage", stats.coverage)

    def bound(stats, sp, args):
        if len(args) > 2 and args[2] is not None:   # provider given
            tracer.note("coverage", stats.coverage)

    def cache_lookup(weights, sp, args):
        tracer.count("cache_hits" if weights is not None else "cache_misses")

    w = tracer.wrap
    patches: list = []
    for owner, attr, name, kw in (
        (RegularizedEvolution, "ask", "nas.ask", {}),
        (RegularizedEvolution, "tell", "nas.tell", {}),
        (Problem, "build_model", "nas.build", {}),
        (scheduler_mod, "estimate_candidate", "nas.estimate", {}),
        (ParentProvider, "select", "transfer.select", {}),
        (estimation_mod, "transfer_weights", "transfer.copy",
         {"on_result": copied}),
        (SupernetTransferBackend, "bind", "transfer.bind",
         {"on_result": bound}),
        (CheckpointStore, "save", "checkpoint.save",
         {"on_result": saved_bytes}),
        (ShardedCheckpointStore, "save", "checkpoint.save",
         {"on_result": saved_bytes}),
        (AsyncCheckpointWriter, "save", "checkpoint.save", {}),
        (CheckpointStore, "load", "checkpoint.load", {}),
        (ShardedCheckpointStore, "load", "checkpoint.load", {}),
        (WeightCache, "get", "checkpoint.cache",
         {"on_result": cache_lookup}),
        (estimation_mod, "fit", "tensor.fit", {}),
        (estimation_mod, "evaluate", "tensor.evaluate", {}),
        (SearchDriver, "submit_next", "cluster.submit_next",
         {"candidate": _driver_candidate}),
        (SearchDriver, "complete", "cluster.complete", {}),
        (TraceJournal, "append", "cluster.journal", {}),
        (ZeroCostGate, "proxy_score", "analysis.proxy", {}),
        (SearchService, "submit", "service.submit", {}),
    ):
        _patch(patches, owner, attr, w(name, getattr(owner, attr), **kw))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
