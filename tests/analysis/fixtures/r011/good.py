"""R011 pass direction: every write guarded; helpers inherit caller locks."""

import threading


class Registry:
    def __init__(self):
        self._lock = threading.Lock()
        self._items = {}
        self._count = 0

    def add(self, key, value):
        with self._lock:
            self._items[key] = value
            self._bump()

    def reset(self):
        with self._lock:
            self._count = 0

    def add_many(self, pairs):
        # The lock taken inside the loop body guards the writes and the
        # helper call under it.
        for key, value in pairs:
            with self._lock:
                self._items.update({key: value})
                self._bump()

    def _bump(self):
        # Only ever called with self._lock held; the seeded analysis
        # starts this method from its callers' lock set.
        self._count = self._count + 1


class Unlocked:
    # No lock attribute at all: the rule has nothing to enforce.
    def __init__(self):
        self.total = 0

    def tally(self):
        self.total = self.total + 1
