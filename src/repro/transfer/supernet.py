"""A retired name: the zero-copy supernet transfer backend is gone.

Weights move one way, through checkpoints and LP/LCS selective
transfer (:func:`repro.transfer.transfer_weights`).  The backend that
bound candidates to shared superweight views lost quality against it
(DESIGN.md "Supernet backend, retired").  This stub stays only because
the benchmark's traced runs still patch ``SupernetTransferBackend.bind``;
it goes with the other kept names once the ``svc-mix`` tenant is
retargeted (ROADMAP.md item 1 step 1).
"""

from __future__ import annotations

__all__ = ["SupernetTransferBackend"]


class SupernetTransferBackend:
    """Nothing constructs or binds through this; ``bind`` raises."""

    def bind(self, model, provider_arch_seq=None):
        raise RuntimeError("the supernet transfer backend was retired; "
                           "weights transfer through checkpoints only")
