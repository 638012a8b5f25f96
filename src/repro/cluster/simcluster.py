"""The simulated cluster: an evaluator on a virtual clock (paper §IX,
Figs. 10-11).

The paper measures scalability on 8/16/32-GPU allocations of ThetaGPU;
we reproduce the *dynamics* in virtual time while keeping the *scores*
real (DESIGN.md: virtual clock, real training).  A simulated search is
an ordinary ``run_search(..., evaluator=SimulatedCluster(num_gpus=G))``:
the one :class:`~repro.cluster.scheduler.SearchDriver` loop proposes,
transfers, checkpoints, retries and quarantines, and only time is
modelled.  Each task is trained for real when it is submitted and
charged by a per-application :class:`CostModel`:

* training seconds grow affinely with the candidate's parameter count,
* the serial dispatcher charges a fixed latency per submission (this is
  what caps NT3's scaling in the paper),
* a provider read and a candidate save cost a fixed latency plus their
  raw payload bytes over a modelled bandwidth, also when the driver's
  cache serves the read; the baseline scheme does no checkpoint I/O,
* a task that raises (an injected crash) holds its GPU for the fixed
  start-up cost, ``base_seconds``, and trains nothing.

A task starts on the earliest-free GPU once the dispatcher is free,
plus the dispatch latency; completions come back in order of virtual
end time.  The fleet reads full while any completion is due by its next
dispatch instant, so the driver tells the strategy every candidate
finished by then before it asks for the next one (DESIGN.md "Simulator
loop, retired").
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Optional

from ..checkpoint import payload_nbytes
from .resilience import TaskFailure, WaitTimeout


@dataclass(frozen=True)
class CostModel:
    """Virtual-time cost of one candidate estimation task."""

    base_seconds: float = 20.0        # fixed cost: startup, data loading
    seconds_per_param: float = 1e-4   # marginal training cost per weight
    dispatch_latency: float = 0.5     # serial scheduler, per submission
    ckpt_latency: float = 0.05        # fixed latency per checkpoint I/O
    write_bandwidth: float = 200e6    # bytes/s, candidate -> store
    read_bandwidth: float = 400e6     # bytes/s, store -> candidate

    def train_seconds(self, num_params: int) -> float:
        return self.base_seconds + self.seconds_per_param * num_params

    def save_seconds(self, nbytes: int) -> float:
        return self.ckpt_latency + nbytes / self.write_bandwidth

    def load_seconds(self, nbytes: int) -> float:
        return self.ckpt_latency + nbytes / self.read_bandwidth


class SimulatedCluster:
    """G virtual GPUs fed by a serial dispatcher; real model training.

    An evaluator and its own clock (``clock is self``).  Use one fleet
    per search: its GPUs and clock carry over from one run to the next.
    """

    def __init__(self, num_gpus: int = 8,
                 cost_model: Optional[CostModel] = None):
        if num_gpus < 1:
            raise ValueError("num_gpus must be >= 1")
        self.num_workers = num_gpus
        self.cost = cost_model or CostModel()
        self.clock = self
        self._gpus = [0.0] * num_gpus   # heap of GPU free times
        self._dispatcher = 0.0          # when the dispatcher is free
        self._now = 0.0                 # the last instant the driver saw
        self._read = 0.0                # modelled reads for the next task
        #: undelivered completions: (end time, ticket, result)
        self._done: list[tuple[float, int, object]] = []
        self._next = 0

    def _dispatch_at(self) -> float:
        return max(self._dispatcher, self._gpus[0], self._now)

    # -- evaluator -------------------------------------------------------
    def submit(self, task: Callable[[], object]) -> int:
        start = self.next_start()
        try:
            result: object = task()
        except Exception as exc:          # contained, not raised
            result = TaskFailure(exc)
            seconds = self.cost.base_seconds
        else:
            seconds = self.cost.train_seconds(
                getattr(result, "num_params", 0))
        io, self._read = self._read, 0.0
        weights = getattr(result, "weights", None)
        if getattr(result, "ok", False) and weights is not None:
            io += self.cost.save_seconds(payload_nbytes(weights))
        end = start + seconds + io
        self._dispatcher = start
        heapq.heapreplace(self._gpus, end)
        ticket = self._next
        self._next += 1
        heapq.heappush(self._done, (end, ticket, result))
        return ticket

    def wait_any(self, timeout: Optional[float] = None):
        """The completion with the earliest virtual end time; with a
        ``timeout``, raises :class:`WaitTimeout` (and advances the clock
        by it) when none ends within it."""
        if not self._done:
            raise RuntimeError("no pending tasks")
        end = self._done[0][0]
        if timeout is not None and end > self._now + timeout:
            self._now += timeout
            raise WaitTimeout(f"no completion within {timeout}s")
        _, ticket, result = heapq.heappop(self._done)
        self._now = max(self._now, end)
        return ticket, result

    @property
    def in_flight(self) -> int:
        """Undelivered tasks — or ``num_workers`` (full) while one is
        due by the next dispatch instant."""
        if self._done and self._done[0][0] <= self._dispatch_at():
            return self.num_workers
        return len(self._done)

    # -- clock -----------------------------------------------------------
    def now(self) -> float:
        return self._now

    def next_start(self) -> float:
        """When the next submitted task starts on its GPU."""
        return self._dispatch_at() + self.cost.dispatch_latency

    def sleep(self, seconds: float) -> None:
        self._now += seconds

    def io_seconds(self, measured: float, nbytes: Optional[int] = None,
                   write: bool = False) -> float:
        """The modelled cost of moving ``nbytes``.  A read is charged to
        the task submitted next, the one that reads it; a save was
        charged to its task at submit, from the weights it returned."""
        if nbytes is None:
            return 0.0
        if write:
            return self.cost.save_seconds(nbytes)
        seconds = self.cost.load_seconds(nbytes)
        self._read += seconds
        return seconds
