"""Fixture: R008 violations (locks nested in both orders).

``forward`` nests alpha -> beta, ``backward`` nests beta -> alpha: two
threads running them concurrently can each hold one lock while blocking
on the other.  Every lock must be a leaf, so each nesting is flagged.
"""

import threading

_alpha_lock = threading.Lock()
_beta_lock = threading.Lock()
shared_log: list = []


def forward(item):
    with _alpha_lock:
        with _beta_lock:
            shared_log.append(item)


def backward(item):
    with _beta_lock:
        with _alpha_lock:
            shared_log.append(item)
