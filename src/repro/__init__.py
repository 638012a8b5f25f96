"""repro — NumPy reproduction of "Accelerating DNN Architecture Search at
Scale Using Selective Weight Transfer" (CLUSTER 2021).

Subpackages:

- :mod:`repro.tensor`     — from-scratch NumPy deep-learning framework
- :mod:`repro.nas`        — search spaces, strategies, candidate estimation
- :mod:`repro.transfer`   — shape sequences, LP/LCS matching, weight transfer
- :mod:`repro.checkpoint` — raw-payload checkpoint store (npz read for
  legacy archives) + multi-level extensions
- :mod:`repro.cluster`    — scheduler, evaluators, discrete-event simulator
- :mod:`repro.apps`       — the four evaluated applications (synthetic data)
- :mod:`repro.metrics`    — Kendall's tau, confidence intervals, geomean
- :mod:`repro.experiments`— one harness per paper table/figure + CLI
"""

__version__ = "1.0.0"

__all__ = [
    "tensor",
    "nas",
    "transfer",
    "checkpoint",
    "cluster",
    "apps",
    "metrics",
    "experiments",
]
