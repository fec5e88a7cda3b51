"""The concurrent query service: cache → admission → engine.

:class:`QueryService` is the layer a deployment talks to.  It composes
the serving primitives into one request path::

    client ──> QueryService            (every step on the caller's thread)
                 │  1. ResultCache.get(epoch, query)          — hit? done.
                 │       (query_wire: the hit is the cached answer's
                 │        encoded wire bytes, no copy)
                 │  2. AdmissionController.run(...)           — reject now,
                 │       expire at the deadline, or hold an execution slot
                 │  3. reading() → (engine, E)                — shared lock
                 │  4. run_query / BatchExecutor().run        — the work
                 │  5. ResultCache.put(E, query, result)
                 └─ metrics: latency histogram + counters, JSON export

No request changes threads inside the service: behind a
:class:`~repro.service.server.NetworkServer` the engine runs on the
connection's own thread, in-process on the caller's.

The service also owns its engine's versioning.  Every engine in this
library is safe for concurrent *reads* but none is safe for a read
racing an in-place mutation — a query fanning over a
:class:`~repro.exec.segments.SegmentedSealSearch` must not observe the
write buffer mid-append:

* **Readers** enter :meth:`QueryService.reading` and receive an atomic
  ``(engine, epoch)`` pair under a shared lock — any number run
  concurrently;
* **Mutators** (:meth:`~QueryService.insert`, :meth:`~QueryService.
  delete`, :meth:`~QueryService.apply`, :meth:`~QueryService.
  swap_engine`) take the lock exclusively, apply the change, and bump
  the **epoch** — the version counter the result cache keys on, which is
  what makes cache invalidation structural (see
  :mod:`repro.service.cache`).  The bump purges the cache's stale
  entries while the write lock is still held;
* **Hot swap** replaces the engine *reference*: build or load the new
  engine first — ``swap_engine(load_engine(path))`` or
  ``swap_engine(recover(snapshot, wal))``, where a bad snapshot raises
  before anything is swapped — so traffic keeps flowing during the
  load; only the final reference flip excludes readers.  In-flight
  queries that pinned the old pair complete against the old engine
  object — it stays alive as long as anyone holds it — while every
  request admitted after the flip sees the new engine and a new epoch.

Correctness properties the tests pin:

* answers through the service are **identical** to calling the engine
  directly, serial, from any number of client threads;
* a cached answer can never be stale: keys embed the engine epoch and
  every answer-affecting mutation bumps it;
* results handed to clients are private copies — two clients never
  share one mutable :class:`~repro.core.stats.SearchStats` (the wire
  path hands out immutable bytes instead);
* overload rejects loudly at admission instead of queueing unboundedly.

Single queries reach the engine through
:func:`~repro.exec.pipeline.run_query` (any engine shape); bursts
submitted via :meth:`QueryService.query_batch` deduplicate identical
queries, check the cache per member, and run the misses as one admitted
:class:`~repro.exec.pipeline.BatchExecutor` trip — the engine's own
``search_batch`` (one batched pass per source), or one batched filter
and verify pass where a bare method has one — filling the cache on the
way out.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar

from repro.core.errors import ServiceError
from repro.core.objects import Query
from repro.core.stats import SearchResult
from repro.exec.pipeline import BatchExecutor, run_query
from repro.geometry import Rect
from repro.service.admission import AdmissionController
from repro.service.cache import ResultCache
from repro.service.metrics import LatencyHistogram, PlannerCounters, RequestCounters
from repro.service.protocol import result_members

_T = TypeVar("_T")


def _same(result: SearchResult) -> SearchResult:
    return result


class _ReadWriteLock:
    """A writer-preferring readers-writer lock.

    Readers share; a writer excludes everyone.  Arriving writers block
    *new* readers (writer preference), so a steady query stream cannot
    starve a mutation or a snapshot swap indefinitely.  The last reader
    out notifies only when a writer is waiting for it.
    """

    __slots__ = ("_cond", "_readers", "_writer_active", "_writers_waiting")

    def __init__(self) -> None:
        self._cond = threading.Condition(threading.Lock())
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if not self._readers and self._writers_waiting:
                self._cond.notify_all()

    @contextmanager
    def writing(self) -> Iterator[None]:
        with self._cond:
            self._writers_waiting += 1
            while self._writer_active or self._readers:
                self._cond.wait()
            self._writers_waiting -= 1
            self._writer_active = True
        try:
            yield
        finally:
            with self._cond:
                self._writer_active = False
                self._cond.notify_all()


class _Reading:
    """The context :meth:`QueryService.reading` returns: the shared lock
    held from ``__enter__``, which answers the ``(engine, epoch)`` pair,
    to ``__exit__``.  One per read, so the service never refers back to
    it: a reference cycle would keep a dropped service's engine alive
    until the collector's next full pass."""

    __slots__ = ("_service",)

    def __init__(self, service: "QueryService") -> None:
        self._service = service

    def __enter__(self) -> Tuple[Any, int]:
        service = self._service
        service._lock.acquire_read()
        return service._current

    def __exit__(self, *exc_info) -> None:
        self._service._lock.release_read()


class QueryService:
    """A thread-safe serving facade over any SEAL engine.

    Update methods delegate to the engine when it supports them and
    raise a clear :class:`~repro.core.errors.ServiceError` when it does
    not.

    Args:
        engine: The engine to serve (epoch 0) — a ``SealSearch``
            (:class:`~repro.exec.segments.SegmentedSealSearch`), its
            durable wrapper, a bare
            :class:`~repro.core.method.SearchMethod`, anything else
            :func:`~repro.exec.pipeline.run_query` accepts.
        cache_capacity: Result-cache entries (LRU past it).
        enable_cache: ``False`` serves every request from the engine —
            the differential-test oracle mode and the bench baseline.
        workers: Requests allowed to execute at once (each on its
            caller's thread; cache hits do not count).
        max_queue: Requests allowed to wait beyond the executing ones;
            a query past that raises
            :class:`~repro.core.errors.AdmissionRejected`.
        default_deadline: Per-request queue-wait deadline in seconds
            (None: no deadline unless a request brings one).

    Attributes:
        replication: The replication source a network server routes
            ``repl-*`` ops to and adds to ``metrics`` — a
            :class:`~repro.service.replication.ReplicationPrimary` or
            :class:`~repro.service.replication.ReplicaApplier` — or
            ``None`` (the default) when the service replicates nothing.

    Examples:
        >>> from repro import Rect, SealSearch
        >>> service = QueryService(SealSearch([(Rect(0, 0, 2, 2), {"a"})]))
        >>> with service:
        ...     result = service.search(Rect(0, 0, 2, 2), {"a"}, 0.5, 0.5)
        >>> result.answers
        [0]
    """

    replication: Any = None

    def __init__(
        self,
        engine: Any,
        *,
        cache_capacity: int = 1024,
        enable_cache: bool = True,
        workers: int = 4,
        max_queue: int = 32,
        default_deadline: float | None = None,
    ) -> None:
        self._lock = _ReadWriteLock()
        # Serializes checkpoints against each other without excluding
        # readers (a checkpoint is answer-preserving; see checkpoint()).
        self._checkpoint_lock = threading.Lock()
        self._current: Tuple[Any, int] = (engine, 0)
        self._cache: Optional[ResultCache] = (
            ResultCache(cache_capacity) if enable_cache else None
        )
        self._admission = AdmissionController(
            workers=workers, max_queue=max_queue, default_deadline=default_deadline
        )
        self._histogram = LatencyHistogram()
        self._counters = RequestCounters()
        self._planner = PlannerCounters()

    @classmethod
    def from_data(
        cls,
        data: Iterable[tuple[Rect, Iterable[str]]],
        *,
        method: str = "planned",
        engine_params: Dict[str, Any] | None = None,
        **service_params,
    ) -> "QueryService":
        """Build a service straight from ``(region, tokens)`` pairs.

        The engine is a ``SealSearch``
        (:class:`~repro.exec.segments.SegmentedSealSearch`): the data as
        one segment indexed with ``method``, and it takes inserts and
        deletes.  The default method is the query planner
        (``method="planned"``): a fresh deployment gets per-query
        dispatch between the token and grid filters without choosing a
        filter up front, and its ``planner`` metrics block counts each
        dispatch it serves.

        Args:
            data: The ROIs to index.
            method: Engine method registry name.
            engine_params: Method-constructor knobs (``granularity``, …).
            **service_params: Passed to :class:`QueryService`.
        """
        from repro.exec.segments import SealSearch

        engine = SealSearch(data, method=method, **(engine_params or {}))
        return cls(engine, **service_params)

    # ------------------------------------------------------------------
    # Query paths
    # ------------------------------------------------------------------

    def query(self, query: Query, *, deadline: float | None = None) -> SearchResult:
        """Execute one query through the full service path, on the
        calling thread.

        Cache hits return without consuming an admission slot — that
        bypass is the throughput win caching exists for.

        Raises:
            AdmissionRejected: The service is saturated (the request
                never waits).
            DeadlineExceeded: The deadline lapsed before an execution
                slot was free.
        """
        return self._serve(query, deadline, self._cache_lookup, _same)

    def query_wire(self, query: Query) -> bytes:
        """:meth:`query`, answered as the response's encoded
        :func:`~repro.service.protocol.result_members` — what a network
        server splices into its frame.

        A hit returns the bytes the cache keeps beside the entry (encoded
        on its first wire hit), so a repeated request re-encodes and
        copies nothing; a miss runs the engine once and encodes its
        result.  Counters, admission and latency are :meth:`query`'s.

        Raises:
            AdmissionRejected: As :meth:`query`.
            DeadlineExceeded: As :meth:`query`.
        """
        return self._serve(query, None, self._cached_members, result_members)

    def _serve(
        self,
        query: Query,
        deadline: float | None,
        lookup: Callable[[Query], Optional[_T]],
        finish: Callable[[SearchResult], _T],
    ) -> _T:
        """The one single-query path: count, ``lookup`` the cache, else
        run admitted and ``finish`` the engine's result."""
        started = time.perf_counter()
        self._counters.request()
        hit = lookup(query)
        if hit is not None:
            self._histogram.observe(time.perf_counter() - started)
            return hit
        return finish(
            self._admission.run(self._timed_execute, query, started, deadline=deadline)
        )

    def search(
        self, region: Rect, tokens: Iterable[str], tau_r: float, tau_t: float
    ) -> SearchResult:
        """Convenience single query from raw parts (mirrors the engines)."""
        return self.query(Query(region, frozenset(tokens), tau_r, tau_t))

    def query_batch(
        self,
        queries: Sequence[Query],
        *,
        deadline: float | None = None,
    ) -> List[SearchResult]:
        """Serve a burst: dedupe, check cache per member, batch the misses.

        Queries equal as values coalesce into one execution; the miss
        set runs as a single admitted call through the
        :class:`BatchExecutor`, and every member's answer is a private
        copy, in input order.
        """
        queries = list(queries)
        if not queries:
            return []
        started = time.perf_counter()
        self._counters.batch(len(queries))
        results: List[Optional[SearchResult]] = [None] * len(queries)
        pending: Dict[Query, List[int]] = {}
        for i, query in enumerate(queries):
            hit = self._cache_lookup(query)
            if hit is not None:
                results[i] = hit
                continue
            pending.setdefault(query, []).append(i)
        if pending:
            epoch, miss_results = self._admission.run(
                self._execute_batch, list(pending), deadline=deadline
            )
            for (query, group), result in zip(pending.items(), miss_results):
                if self._cache is not None:
                    self._cache.put(epoch, query, result)
                results[group[0]] = result
                for duplicate in group[1:]:
                    results[duplicate] = result.copy()
        elapsed = time.perf_counter() - started
        # Batch members record amortized latency (wall / members): the
        # histogram then stays consistent with q/s arithmetic.
        for _ in queries:
            self._histogram.observe(elapsed / len(queries))
        return results  # type: ignore[return-value]  # every slot filled above

    # ------------------------------------------------------------------
    # Execution internals (run while holding an execution slot)
    # ------------------------------------------------------------------

    def _cache_lookup(self, query: Query) -> Optional[SearchResult]:
        if self._cache is None:
            return None
        return self._cache.get(self._current[1], query)

    def _cached_members(self, query: Query) -> Optional[bytes]:
        if self._cache is None:
            return None
        return self._cache.get_encoded(self._current[1], query, result_members)

    def _timed_execute(self, query: Query, started: float) -> SearchResult:
        try:
            with self.reading() as (engine, epoch):
                result = run_query(engine, query)
        except Exception:
            self._counters.error()
            raise
        self._planner.observe(result.stats)
        if self._cache is not None:
            self._cache.put(epoch, query, result)
        self._histogram.observe(time.perf_counter() - started)
        return result

    def _execute_batch(self, queries: List[Query]) -> Tuple[int, List[SearchResult]]:
        try:
            with self.reading() as (engine, epoch):
                results = BatchExecutor().run(engine, queries)
        except Exception:
            self._counters.error()
            raise
        for result in results:
            self._planner.observe(result.stats)
        return epoch, results

    def reading(self) -> _Reading:
        """Shared-lock access to an atomic ``(engine, epoch)`` pair.

        Hold it for the duration of one query: in-place mutators and
        swaps wait for the lock, so the engine cannot change underneath.
        """
        return _Reading(self)

    # ------------------------------------------------------------------
    # Mutation (exclusive lock; every answer-affecting change bumps)
    # ------------------------------------------------------------------

    def _bump(self, engine: Any) -> int:
        epoch = self._current[1] + 1
        self._current = (engine, epoch)
        if self._cache is not None:
            self._cache.drop_stale(epoch)
        return epoch

    def _updatable(self, name: str) -> Callable:
        engine = self._current[0]
        op = getattr(engine, name, None)
        if op is None:
            raise ServiceError(
                f"{type(engine).__name__} does not support in-place {name}; "
                "serve a SealSearch engine (build --segmented) for updates"
            )
        return op

    def insert(self, region: Rect, tokens: Iterable[str]) -> int:
        """Insert one object into the live engine (updatable engines
        only); bumps the epoch."""
        with self._lock.writing():
            oid = self._updatable("insert")(region, tokens)
            self._bump(self._current[0])
            return oid

    def delete(self, oid: int) -> bool:
        """Tombstone one object in the live engine (updatable engines
        only); bumps the epoch only if it was live."""
        with self._lock.writing():
            deleted = self._updatable("delete")(oid)
            if deleted:
                self._bump(self._current[0])
            return deleted

    def apply(self, mutator: Callable[[Any], Any]) -> Any:
        """Run an arbitrary engine mutation under the exclusive lock.

        The generic mutation primitive the typed methods above are
        special cases of: ``mutator(engine)`` runs with every reader
        excluded, and the epoch bumps afterwards — even when the mutator
        raises partway, since the engine may have visibly changed.
        Batches and maintenance go through it:
        ``apply(lambda e: [e.insert(r, t) for r, t in pairs])``,
        ``apply(lambda e: e.flush())``, ``apply(lambda e: e.compact())``.
        The replication applier replays whole shipped WAL batches through
        one ``apply`` call, so replicas pay one epoch bump (one cache
        purge) per shipment rather than per record.

        Returns whatever ``mutator`` returns.
        """
        with self._lock.writing():
            try:
                return mutator(self._current[0])
            finally:
                self._bump(self._current[0])

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    def checkpoint(self, path=None):
        """Durable WAL checkpoint of the live engine (durable engines only).

        Runs under the *shared* lock: a checkpoint never changes answers
        (the live set and weighter are untouched), so queries keep
        flowing while the snapshot writes; mutators wait — exactly the
        exclusion the snapshot pickling needs (the save cannot run
        off-lock: serialising an engine a mutator is changing would
        corrupt the snapshot).  Honest caveat on a *mixed* workload:
        the RW lock is writer-preferring, so a mutator arriving mid-
        checkpoint queues new readers behind it until the checkpoint's
        disk write finishes — pure-read traffic is unaffected.
        Concurrent checkpoints serialize on a dedicated mutex.  The
        epoch does not move: cached results stay valid across a
        checkpoint.

        Returns the snapshot path written.

        Raises:
            ServiceError: The engine has no ``checkpoint`` (it is not
                wrapped by the durability layer).
        """
        with self._checkpoint_lock:
            with self.reading() as (engine, _):
                op = getattr(engine, "checkpoint", None)
                if op is None:
                    raise ServiceError(
                        f"{type(engine).__name__} does not support checkpoint; "
                        "serve a durable engine (build --wal / recover()) for "
                        "WAL checkpoints"
                    )
                return op(path) if path is not None else op()

    # ------------------------------------------------------------------
    # Hot swap
    # ------------------------------------------------------------------

    def swap_engine(self, engine: Any) -> int:
        """Atomically replace the engine reference; returns the new epoch.

        In-flight readers keep the old engine object (alive while they
        hold it); readers admitted after the swap see the new one.
        """
        with self._lock.writing():
            return self._bump(engine)

    # ------------------------------------------------------------------
    # Observability and lifecycle
    # ------------------------------------------------------------------

    @property
    def cache(self) -> Optional[ResultCache]:
        return self._cache

    @property
    def epoch(self) -> int:
        """The current engine version (reads are atomic under the GIL)."""
        return self._current[1]

    @property
    def engine(self) -> Any:
        """The current engine reference (unguarded peek; use
        :meth:`reading` when you will actually query it)."""
        return self._current[0]

    def metrics(self) -> Dict[str, object]:
        """The service's JSON-serializable metrics document.

        Schema: ``epoch`` (int), ``engine`` (class name), ``requests``
        (totals/batches/errors), ``cache`` (hit/miss/eviction counters,
        or ``None`` with the cache disabled), ``admission``
        (workers/queue/rejections), ``latency_ms`` (histogram with
        mean/max and interpolated p50/p90/p99), ``planner``
        (``decisions``, ``selections`` and ``filter_latency_ms`` per
        member of every planned dispatch the service executed — one per
        planned segment of a segmented engine; ``None`` until the
        first).  Like ``requests``, it survives engine swaps and counts
        no cache hit, duplicate batch member or call around the service.
        """
        engine, epoch = self._current
        return {
            "epoch": epoch,
            "engine": type(engine).__name__,
            "requests": self._counters.as_dict(),
            "cache": self._cache.counters() if self._cache is not None else None,
            "admission": self._admission.counters(),
            "latency_ms": self._histogram.as_dict(),
            "planner": self._planner.as_dict(),
        }

    def metrics_json(self, *, indent: int | None = 2) -> str:
        """The metrics document rendered as JSON text."""
        return json.dumps(self.metrics(), indent=indent)

    def close(self) -> None:
        """Stop accepting requests and wait for the admitted ones."""
        self._admission.shutdown(wait=True)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        engine, epoch = self._current
        cache = "on" if self._cache is not None else "off"
        return (
            f"QueryService(engine={type(engine).__name__}, epoch={epoch}, "
            f"cache={cache}, workers={self._admission.workers})"
        )
