"""Seeded lock-order violations: an ABBA cycle (reached through the
intraprocedural call graph), a checkpoint-mutex inversion, and a
re-acquisition deadlock."""

import threading


class CycleEngine:
    """Takes A then B on one path, B then A on another — ABBA deadlock.

    The A->B edge is only visible through the call graph: ``ship``
    holds A and calls ``_flush``, which takes B.
    """

    def __init__(self):
        self._append_lock = threading.Lock()
        self._flush_lock = threading.Lock()

    def ship(self):
        with self._append_lock:
            self._flush()

    def _flush(self):
        with self._flush_lock:
            pass

    def drain(self):
        with self._flush_lock:
            with self._append_lock:  # opposite order: closes the cycle
                pass


class InvertedCheckpoint:
    """Acquires the checkpoint mutex while already holding the RW lock —
    the reverse of QueryService.checkpoint's canonical order."""

    def __init__(self):
        self._lock = threading.Lock()
        self._checkpoint_lock = threading.Lock()

    def snapshot(self):
        with self._lock:
            with self._checkpoint_lock:  # wrong order
                pass


class Reentrant:
    """Calls a lock-taking method while already holding that lock."""

    def __init__(self):
        self._lock = threading.Lock()

    def stats(self):
        with self._lock:
            return self.count()  # count() re-takes self._lock: deadlock

    def count(self):
        with self._lock:
            return 1
