"""Fixture: would-be violations silenced by suppression comments."""

import threading

import numpy as np


def make_scratch():
    return np.zeros((2, 2))  # lint: ignore[R001]


class SuppressedRacy:
    """A would-be R007 (shared write outside the lock), suppressed."""

    def __init__(self):
        self._lock = threading.Lock()
        self.total = 0
        self._worker = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while True:
            self.total += 1  # lint: ignore[R007]

    def snapshot(self):
        with self._lock:
            return self.total


_s_alpha_lock = threading.Lock()
_s_beta_lock = threading.Lock()


def s_forward():
    with _s_alpha_lock:
        with _s_beta_lock:  # lint: ignore[R008]
            pass


def s_backward():
    with _s_beta_lock:
        with _s_alpha_lock:  # lint: ignore[R008]
            pass
