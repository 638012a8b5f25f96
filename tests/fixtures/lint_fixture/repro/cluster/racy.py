"""Fixture: one R007 violation (shared attr written outside the lock).

``total`` is shared — written by the thread-escaping ``_run`` loop and
read under the class's own lock — so the unguarded write must be
flagged by the inference.
"""

import threading


class RacyCounter:
    def __init__(self):
        self._lock = threading.Lock()
        self.total = 0
        self._worker = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while True:
            self.total += 1  # escaping write, no lock held

    def snapshot(self):
        with self._lock:
            return self.total
