"""Cluster-scale NAS execution: scheduler, evaluators, simulator, traces."""

from .evaluator import SerialEvaluator, ThreadPoolEvaluator
from .resilience import (
    ChaosEvaluator,
    CorruptCheckpointError,
    FaultStats,
    InjectedFault,
    RetryPolicy,
    TaskError,
    TaskFailure,
    TraceJournal,
    WaitTimeout,
)
from .scheduler import SCHEMES, SearchDriver, run_search
from .simcluster import CostModel, SimulatedCluster
from .trace import Trace, TraceRecord, checkpoint_key

__all__ = [
    "run_search", "SCHEMES", "SearchDriver",
    "SerialEvaluator", "ThreadPoolEvaluator",
    "SimulatedCluster", "CostModel",
    "Trace", "TraceRecord", "checkpoint_key",
    "ChaosEvaluator", "CorruptCheckpointError", "FaultStats",
    "InjectedFault", "RetryPolicy", "TaskError", "TaskFailure",
    "TraceJournal", "WaitTimeout",
]
