"""Admission control: bounded concurrency that rejects overflow loudly.

An unbounded server converts overload into unbounded queueing — every
request eventually "succeeds" after a latency nobody would call service.
This controller implements the standard alternative on the thread that
already carries the request (a connection handler, or the in-process
caller): at most ``workers`` requests execute at once, at most
``max_queue`` more wait in line, with three explicit outcomes:

* **admitted** — a place (executing or in line) was free; the thread
  that brought the request runs it as soon as an execution slot frees
  up, and :meth:`AdmissionController.run` returns its result;
* **rejected** — every execution slot busy *and* the line full on
  arrival: :class:`~repro.core.errors.AdmissionRejected` raises
  immediately (back-pressure, not silent queueing);
* **expired** — admitted, but no execution slot freed up before its
  deadline: the waiting thread itself wakes *at the deadline*, gives
  its place in line back, and raises
  :class:`~repro.core.errors.DeadlineExceeded` without executing.
  Deadlines bound *queue wait*, the component of latency admission
  control owns; once execution starts the request runs to completion (a
  half-executed query has no useful refund).

The execution slots are a counter under the controller's one lock, and
a request waits on a condition of that lock only when every slot is
busy: an uncontended request takes the lock once on its way in and once
on its way out.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, TypeVar

from repro.core.errors import (
    AdmissionRejected,
    ConfigurationError,
    DeadlineExceeded,
    ServiceError,
)

T = TypeVar("T")


class AdmissionController:
    """A bounded gate: ``workers`` executing, at most ``max_queue`` waiting.

    Args:
        workers: Requests allowed to execute at once.
        max_queue: Requests allowed to wait beyond the ones executing;
            total in-flight capacity is ``workers + max_queue``.
        default_deadline: Seconds a request may wait for an execution
            slot before it expires; ``None`` disables deadlines unless a
            request brings its own.
    """

    def __init__(
        self,
        *,
        workers: int = 4,
        max_queue: int = 32,
        default_deadline: float | None = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError("workers must be a positive int")
        if max_queue < 0:
            raise ConfigurationError("max_queue must be >= 0")
        if default_deadline is not None and default_deadline <= 0.0:
            raise ConfigurationError("default_deadline must be positive seconds or None")
        self.workers = workers
        self.max_queue = max_queue
        self.default_deadline = default_deadline
        # Guards the counters, the slots and ``_closed``; released while a
        # request waits for an execution slot (inside ``_slot_freed``) or
        # runs.
        self._lock = threading.Lock()
        self._slot_freed = threading.Condition(self._lock)
        self._drained = threading.Condition(self._lock)
        self._executing = 0
        self._waiting = 0
        self._in_flight = 0
        self.submitted = 0
        self.rejected = 0
        self.expired = 0
        self._closed = False

    def run(self, fn: Callable[..., T], /, *args, deadline: float | None = None, **kwargs) -> T:
        """Admit one request and execute it on the calling thread.

        Args:
            fn: The work to run once an execution slot is free.
            deadline: Seconds from now the request may wait for that
                slot (overrides ``default_deadline``; ``None`` inherits
                it).

        Returns:
            ``fn(*args, **kwargs)``; whatever it raises propagates as is.

        Raises:
            AdmissionRejected: No place was free on arrival.
            DeadlineExceeded: The deadline lapsed while waiting in line.
            ServiceError: The controller is shut down.
        """
        if deadline is None:
            deadline = self.default_deadline
        with self._lock:
            if self._closed:
                raise ServiceError("AdmissionController is shut down")
            if self._in_flight >= self.workers + self.max_queue:
                self.rejected += 1
                raise AdmissionRejected(
                    f"service saturated: {self.workers} workers busy and "
                    f"admission queue full ({self.max_queue} waiting); retry later"
                )
            self.submitted += 1
            self._in_flight += 1
            if self._executing >= self.workers and not self._wait_for_slot(deadline):
                self.expired += 1
                raise DeadlineExceeded(
                    f"request waited past its {deadline:.3f}s deadline "
                    "before a worker was free"
                )
            self._executing += 1
        try:
            return fn(*args, **kwargs)
        finally:
            with self._lock:
                self._executing -= 1
                if self._waiting:
                    self._slot_freed.notify()
                self._leave()

    def _wait_for_slot(self, deadline: float | None) -> bool:
        """Wait, ``_lock`` released meanwhile, until a slot is free or
        ``deadline`` lapses (caller holds ``_lock``).  A request that
        gets no slot gives its place in line back here."""
        self._waiting += 1
        free = False
        try:
            free = self._slot_freed.wait_for(self._has_slot, deadline)
        finally:
            self._waiting -= 1
            if not free:
                self._leave()
        return free

    def _has_slot(self) -> bool:
        return self._executing < self.workers

    def _leave(self) -> None:
        """One admitted request is done (caller holds ``_lock``); only a
        closed controller can have a :meth:`shutdown` waiting on it."""
        self._in_flight -= 1
        if self._closed and not self._in_flight:
            self._drained.notify_all()

    @property
    def in_flight(self) -> int:
        """Requests currently executing or waiting in line."""
        with self._lock:
            return self._in_flight

    def counters(self) -> Dict[str, object]:
        """JSON-serializable admission accounting."""
        with self._lock:
            return {
                "workers": self.workers,
                "max_queue": self.max_queue,
                "default_deadline_seconds": self.default_deadline,
                "in_flight": self._in_flight,
                "submitted": self.submitted,
                "rejected": self.rejected,
                "deadline_expired": self.expired,
            }

    def shutdown(self, *, wait: bool = True) -> None:
        """Refuse new requests and (optionally) wait until every admitted
        one — executing or still in line — has finished."""
        with self._lock:
            self._closed = True
            if wait:
                self._drained.wait_for(lambda: not self._in_flight)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AdmissionController(workers={self.workers}, max_queue={self.max_queue}, "
            f"in_flight={self.in_flight})"
        )
