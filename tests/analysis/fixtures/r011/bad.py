"""R011 fail direction: a sibling write skips the guarding lock."""

import threading


class Registry:
    def __init__(self):
        self._lock = threading.Lock()
        self._items = {}
        self._count = 0

    def add(self, key, value):
        with self._lock:
            self._items[key] = value
            self._count = self._count + 1

    def reset(self):
        self._count = 0  # finding: written under self._lock in add

    def add_many(self, pairs):
        for key, value in pairs:
            self._items.update({key: value})  # finding: written under self._lock in add
