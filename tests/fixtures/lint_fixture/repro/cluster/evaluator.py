"""Fixture: one R007 violation (shared attr written outside the lock).

``_futures`` is popped under the lock in ``drain``, so it is shared and
``submit``'s unlocked write is flagged."""

import threading


class BadEvaluator:
    def __init__(self):
        self._futures = {}
        self._lock = threading.Lock()

    def submit(self, fut, ticket):
        self._futures[fut] = ticket  # not under self._lock

    def drain(self, fut):
        with self._lock:
            return self._futures.pop(fut)
