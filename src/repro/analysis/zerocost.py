"""A retired name: the zero-cost admission gate is gone.

No candidate is screened before it is trained.  The gate that scored
candidates at initialisation (grad-norm, synflow, NTK-trace proxies)
and rejected the bottom quantile before partial training lost anytime
search quality on both paper-default workloads (DESIGN.md "Zero-cost
gate, retired").  This stub stays only because the benchmark's traced
runs still patch ``ZeroCostGate.proxy_score``; it goes with the other
kept names once the ``svc-mix`` tenant is retargeted (ROADMAP.md item 1
step 1).
"""

from __future__ import annotations

__all__ = ["ZeroCostGate"]


class ZeroCostGate:
    """Nothing constructs or scores through this; ``proxy_score`` raises."""

    def proxy_score(self, arch_seq):
        raise RuntimeError("the zero-cost admission gate was retired; "
                           "candidates are not screened before training")
