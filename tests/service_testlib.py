"""Shared helpers for the serving-layer suites (not collected as tests).

Admission is only observable with several requests in flight at once, so
the in-process, networked and pre-fork suites all need the same three
things: an engine that holds its callers until released, an engine that
reports which thread ran it, and a client thread whose outcome (value or
exception) the test can collect with a bounded wait.
"""

from __future__ import annotations

import threading
import time

from repro import Query
from repro.core.stats import SearchResult, SearchStats


def wait_until(predicate, timeout: float = 5.0, message: str = "condition") -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            raise AssertionError(f"timed out waiting for {message}")
        time.sleep(0.005)


class GatedEngine:
    """An engine whose queries block until released (admission tests)."""

    def __init__(self):
        self.release = threading.Event()
        self._lock = threading.Lock()
        self.calls = 0

    def search_query(self, query: Query) -> SearchResult:
        with self._lock:
            self.calls += 1
        assert self.release.wait(timeout=10.0)
        return SearchResult(answers=[], stats=SearchStats())


class ThreadReportingEngine:
    """Records the thread of every call, and answers with it.

    The answer list spells ``"<calling thread's name>|<every live
    thread's name, comma-joined>"`` as code points, so the report also
    crosses a socket out of a forked worker (see :func:`decode_threads`).
    """

    def __init__(self):
        self.threads = []

    def search_query(self, query: Query) -> SearchResult:
        current = threading.current_thread()
        self.threads.append(current)
        names = ",".join(sorted(thread.name for thread in threading.enumerate()))
        return SearchResult(
            answers=[ord(char) for char in f"{current.name}|{names}"], stats=SearchStats()
        )


def decode_threads(result: SearchResult) -> tuple[str, list[str]]:
    """``(calling thread name, all live thread names)`` of one
    :class:`ThreadReportingEngine` answer."""
    caller, _, names = "".join(map(chr, result.answers)).partition("|")
    return caller, names.split(",")


class Caller(threading.Thread):
    """One client thread running ``fn(*args, **kwargs)``; :meth:`finish`
    joins it (bounded) and returns the value or re-raises the error."""

    def __init__(self, fn, *args, **kwargs):
        super().__init__(name="test-caller", daemon=True)
        self._call = (fn, args, kwargs)
        self.value = None
        self.error: BaseException | None = None
        self.start()

    def run(self) -> None:
        fn, args, kwargs = self._call
        try:
            self.value = fn(*args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - re-raised by finish()
            self.error = exc

    def finish(self, timeout: float = 10.0):
        self.join(timeout)
        assert not self.is_alive(), "caller thread still blocked"
        if self.error is not None:
            raise self.error
        return self.value
