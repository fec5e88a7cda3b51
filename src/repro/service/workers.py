"""The pre-fork worker pool: N processes, one mmap-shared snapshot.

On a GIL-bound interpreter the connection threads of one process
overlap their socket waits but not their queries — those serialize on
one core.  This module escapes the process boundary with the classic
pre-fork topology (the nginx/gunicorn shape):

* the **supervisor** validates one snapshot path, binds the listening
  socket, forks workers onto that snapshot, and respawns any that die;
* each **worker** inherits the listening socket through ``fork`` and
  ``load_engine(mmap=True)``s the snapshot — N workers map the same ``.npz``
  sidecar, so the kernel keeps **one** physical copy of the CSR posting
  arrays in the page cache and queries run genuinely parallel across
  cores;
* the kernel's ``accept`` queue load-balances connections across
  whichever workers are listening — no routing tier.

**Workers are read-only.**  The pool serves the snapshot it was given
until shutdown; a worker that dies is reforked onto the same path.  A
connection to a killed worker fails loudly (a closed connection, never
a wrong answer) and the client reconnects.  To serve a changed engine,
save it and start a new pool.

Requires a POSIX ``fork`` start method (the listening socket crosses by
inheritance, never by pickling); :class:`ProcessSupervisor` refuses
loudly elsewhere.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import signal
import socket
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.core.errors import ConfigurationError, ServiceError
from repro.io.snapshot import load_engine, validate_snapshot
from repro.service.server import BACKLOG, DEFAULT_HOST, _POLL_SECONDS, accept_connections
from repro.service.service import QueryService

_LOG = logging.getLogger(__name__)

#: Seconds a draining worker gets to finish in-flight requests before
#: the supervisor escalates to SIGTERM.
DRAIN_TIMEOUT = 8.0

#: Seconds a freshly forked worker gets to load the snapshot and report
#: ready before the spawn is declared failed.
BOOT_TIMEOUT = 60.0


def _worker_main(
    listener: socket.socket,
    control,
    snapshot,
    service_config: Dict[str, Any],
) -> None:
    """A worker process: mmap the snapshot, serve.

    Runs in the forked child.  ``control`` is this worker's end of the
    supervisor pipe: the worker announces readiness on it, then watches
    it for the drain message (supervisor death reads as EOF and drains
    too, so orphaned workers exit instead of serving a dead topology).
    """
    # The supervisor owns Ctrl-C; workers drain via the control pipe.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    engine = load_engine(snapshot, mmap=True)
    service = QueryService(engine, **service_config)
    stop = threading.Event()

    def watch_control() -> None:
        try:
            control.recv()  # any message (or supervisor EOF) means drain
        except (EOFError, OSError):
            pass
        stop.set()

    watcher = threading.Thread(target=watch_control, name="seal-worker-control", daemon=True)
    watcher.start()

    def meta() -> Dict[str, Any]:
        return {"epoch": service.epoch, "generation": None, "pid": os.getpid()}

    try:
        with service:
            control.send({"ready": os.getpid()})
            accept_connections(
                listener,
                service,
                stop=stop,
                meta=meta,
                thread_name="seal-worker-conn",
            )
    finally:
        listener.close()
        try:
            control.send({"drained": os.getpid()})
        except (OSError, BrokenPipeError):  # pragma: no cover - supervisor gone
            pass


class _Worker:
    """Supervisor-side handle: the process plus its control pipe."""

    __slots__ = ("process", "control")

    def __init__(self, process, control) -> None:
        self.process = process
        self.control = control


class ProcessSupervisor:
    """Forks, feeds, drains, and respawns the worker pool.

    Args:
        snapshot: An engine snapshot (:func:`repro.io.save_engine`);
            every worker, respawns included, memory-maps this path.
        workers: Worker process count (≥ 1).
        host: Interface the shared listening socket binds.
        port: TCP port (0 picks a free one; see :attr:`address`).
        service_config: Keyword arguments for each worker's in-process
            :class:`~repro.service.service.QueryService` (cache knobs,
            admission limits, …).  Defaults to the service defaults.

    Workers that die are reforked; workers drained by :meth:`close`
    are not.

    Raises:
        SnapshotError: ``snapshot`` is missing or not a loadable
            snapshot (checked before any fork).

    Examples:
        >>> with ProcessSupervisor("engine.pkl", workers=4) as sup:  # doctest: +SKIP
        ...     host, port = sup.address
        ...     ...  # clients connect
    """

    def __init__(
        self,
        snapshot,
        *,
        workers: int = 2,
        host: str = DEFAULT_HOST,
        port: int = 0,
        service_config: Optional[Dict[str, Any]] = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError("workers must be a positive int")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ServiceError(
                "multi-process serving needs the POSIX 'fork' start method "
                "(the listening socket is inherited, not pickled); use "
                "NetworkServer on this platform"
            )
        validate_snapshot(snapshot)  # fail loudly before any fork
        self._ctx = multiprocessing.get_context("fork")
        self._snapshot = snapshot
        self.workers = workers
        self._host = host
        self._port = port
        self._service_config = dict(service_config or {})
        self.respawns = 0
        self._lock = threading.Lock()
        self._pool: List[_Worker] = []
        self._closed = False
        self._listener: Optional[socket.socket] = None
        self._monitor: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "ProcessSupervisor":
        """Bind, fork the pool, start crash monitoring (idempotent)."""
        if self._listener is not None:
            return self
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._port))
        listener.listen(BACKLOG)
        self._listener = listener
        with self._lock:
            self._pool = [self._spawn() for _ in range(self.workers)]
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="seal-supervisor-monitor", daemon=True
        )
        self._monitor.start()
        return self

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` clients connect to."""
        if self._listener is None:
            raise ServiceError("supervisor not started")
        return self._listener.getsockname()[:2]

    def worker_pids(self) -> List[int]:
        """Live worker pids (diagnostics and the kill tests)."""
        with self._lock:
            return [
                worker.process.pid
                for worker in self._pool
                if worker.process.is_alive()
            ]

    def _spawn(self) -> _Worker:
        """Fork one worker onto the snapshot; await readiness."""
        parent_end, child_end = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                self._listener,
                child_end,
                self._snapshot,
                self._service_config,
            ),
            name="seal-worker",
            daemon=True,
        )
        process.start()
        child_end.close()
        if not parent_end.poll(BOOT_TIMEOUT):
            process.terminate()
            raise ServiceError(
                f"worker failed to become ready within {BOOT_TIMEOUT}s "
                f"({self._snapshot})"
            )
        try:
            message = parent_end.recv()
        except EOFError as exc:
            process.join(timeout=1.0)
            raise ServiceError(
                f"worker died while booting {self._snapshot} "
                f"(exitcode {process.exitcode})"
            ) from exc
        if not isinstance(message, dict) or "ready" not in message:
            process.terminate()
            raise ServiceError(f"worker sent unexpected boot message {message!r}")
        return _Worker(process, parent_end)

    def _monitor_loop(self) -> None:
        while not self._closed:
            time.sleep(2 * _POLL_SECONDS)
            with self._lock:
                if self._closed:
                    continue
                for i, worker in enumerate(self._pool):
                    if worker.process.is_alive():
                        continue
                    worker.control.close()
                    try:
                        self._pool[i] = self._spawn()
                    except ServiceError as exc:  # pragma: no cover - respawn keeps trying
                        # A failed respawn is an operational incident even
                        # though the loop retries: say so, loudly, instead
                        # of shrinking the pool in silence.
                        _LOG.error(
                            "respawn of dead worker %d failed (%s); retrying "
                            "on the next monitor tick",
                            i,
                            exc,
                        )
                        continue
                    self.respawns += 1

    @staticmethod
    def _drain(workers: List[_Worker]) -> None:
        """Ask workers to finish in-flight requests and exit; escalate
        to SIGTERM only past the drain grace."""
        for worker in workers:
            try:
                worker.control.send("drain")
            except (OSError, BrokenPipeError):
                pass  # already dead; join below reaps it
        deadline = time.monotonic() + DRAIN_TIMEOUT
        for worker in workers:
            worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.terminate()
                worker.process.join(timeout=2.0)
            worker.control.close()

    def close(self) -> None:
        """Drain the pool, stop monitoring, release the port (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            old = list(self._pool)
            self._pool = []
        if self._monitor is not None:
            self._monitor.join(timeout=DRAIN_TIMEOUT)
        self._drain(old)
        if self._listener is not None:
            self._listener.close()

    def __enter__(self) -> "ProcessSupervisor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "serving"
        return (
            f"ProcessSupervisor({str(self._snapshot)!r}, workers={self.workers}, "
            f"{state}, respawns={self.respawns})"
        )
