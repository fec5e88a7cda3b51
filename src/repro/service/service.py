"""The concurrent query service: cache → admission → engine.

:class:`QueryService` is the layer a deployment talks to.  It composes
the serving primitives into one request path::

    client ──> QueryService            (every step on the caller's thread)
                 │  1. ResultCache.get(epoch, query)          — hit? done.
                 │       (query_wire: the hit is the cached answer's
                 │        encoded wire bytes, no copy)
                 │  2. AdmissionController.run(...)           — reject now,
                 │       expire at the deadline, or hold an execution slot
                 │  3. EngineManager.reading() → (engine, E)  — shared lock
                 │  4. run_query / BatchExecutor().run        — the work
                 │  5. ResultCache.put(E, query, result)
                 └─ metrics: latency histogram + counters, JSON export

No request changes threads inside the service: behind a
:class:`~repro.service.server.NetworkServer` the engine runs on the
connection's own thread, in-process on the caller's.

Correctness properties the tests pin:

* answers through the service are **identical** to calling the engine
  directly, serial, from any number of client threads;
* a cached answer can never be stale: keys embed the engine epoch and
  every answer-affecting mutation bumps it (see
  :mod:`repro.service.cache` and :mod:`repro.service.manager`);
* results handed to clients are private copies — two clients never
  share one mutable :class:`~repro.core.stats.SearchStats` (the wire
  path hands out immutable bytes instead);
* overload rejects loudly at admission instead of queueing unboundedly.

Single queries reach the engine through
:func:`~repro.exec.pipeline.run_query` (any engine shape); bursts
submitted via :meth:`QueryService.query_batch` deduplicate identical
queries, check the cache per member, and run the misses as one admitted
:class:`~repro.exec.batch.BatchExecutor` trip — one batched filter and
verify pass where the engine has one — filling the cache on the way out.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

from repro.core.objects import Query
from repro.core.stats import SearchResult
from repro.exec.batch import BatchExecutor
from repro.exec.pipeline import run_query
from repro.geometry import Rect
from repro.service.admission import AdmissionController
from repro.service.cache import ResultCache
from repro.service.manager import EngineManager
from repro.service.metrics import LatencyHistogram, RequestCounters
from repro.service.protocol import result_members

_T = TypeVar("_T")


def _same(result: SearchResult) -> SearchResult:
    return result


class QueryService:
    """A thread-safe serving facade over any SEAL engine.

    Args:
        engine: The engine to serve — any of :class:`~repro.core.engine.
            SealSearch`, :class:`~repro.exec.segments.SegmentedSealSearch`,
            a bare :class:`~repro.core.method.SearchMethod`, anything else
            :func:`~repro.exec.pipeline.run_query` accepts — or an existing
            :class:`~repro.service.manager.EngineManager` to share one
            versioned engine between services.
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

    Examples:
        >>> from repro import Rect, SealSearch
        >>> service = QueryService(SealSearch([(Rect(0, 0, 2, 2), {"a"})]))
        >>> with service:
        ...     result = service.search(Rect(0, 0, 2, 2), {"a"}, 0.5, 0.5)
        >>> result.answers
        [0]
    """

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
        self._manager = engine if isinstance(engine, EngineManager) else EngineManager(engine)
        self._cache: Optional[ResultCache] = (
            ResultCache(cache_capacity) if enable_cache else None
        )
        if self._cache is not None:
            self._manager.add_epoch_listener(self._cache.drop_stale)
        self._admission = AdmissionController(
            workers=workers, max_queue=max_queue, default_deadline=default_deadline
        )
        self._histogram = LatencyHistogram()
        self._counters = RequestCounters()

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

        The default engine is the query planner (``method="planned"``):
        a fresh deployment gets per-query dispatch between the token and
        grid filters — and the ``planner`` metrics block — without
        choosing a filter up front.

        Args:
            data: The ROIs to index.
            method: Engine method registry name.
            engine_params: Method-constructor knobs (``granularity``, …).
            **service_params: Passed to :class:`QueryService`.
        """
        from repro.core.engine import SealSearch

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
        return self._cache.get(self._manager.epoch, query)

    def _cached_members(self, query: Query) -> Optional[bytes]:
        if self._cache is None:
            return None
        return self._cache.get_encoded(self._manager.epoch, query, result_members)

    def _timed_execute(self, query: Query, started: float) -> SearchResult:
        try:
            with self._manager.reading() as (engine, epoch):
                result = run_query(engine, query)
        except Exception:
            self._counters.error()
            raise
        if self._cache is not None:
            self._cache.put(epoch, query, result)
        self._histogram.observe(time.perf_counter() - started)
        return result

    def _execute_batch(self, queries: List[Query]) -> Tuple[int, List[SearchResult]]:
        try:
            with self._manager.reading() as (engine, epoch):
                return epoch, BatchExecutor().run(engine, queries).results
        except Exception:
            self._counters.error()
            raise

    # ------------------------------------------------------------------
    # Engine lifecycle (delegated to the manager; epoch bumps invalidate)
    # ------------------------------------------------------------------

    def insert(self, region: Rect, tokens: Iterable[str]) -> int:
        """Insert into the live engine (updatable engines only)."""
        return self._manager.insert(region, tokens)

    def delete(self, oid: int) -> bool:
        """Tombstone an object in the live engine (updatable engines only)."""
        return self._manager.delete(oid)

    def compact(self) -> None:
        """Fully compact the live engine (updatable engines only)."""
        self._manager.compact()

    def flush(self) -> None:
        """Seal the live engine's write buffer (answer-preserving)."""
        self._manager.flush()

    def swap_engine(self, engine: Any) -> int:
        """Hot-swap to ``engine``; returns the new epoch."""
        return self._manager.swap(engine)

    def load_snapshot(self, path, *, mmap: bool = False) -> int:
        """Hot-swap to a pre-validated snapshot loaded off-lock."""
        return self._manager.load_snapshot(path, mmap=mmap)

    def checkpoint(self, path=None):
        """Durable WAL checkpoint of the live engine (durable engines
        only): answer-preserving, concurrent with queries, no epoch
        bump — the cache stays warm.  Returns the snapshot path."""
        return self._manager.checkpoint(path)

    def recover(self, snapshot_path, wal_path, *, mmap: bool = False,
                sync: str = "always") -> int:
        """Hot-swap to an engine recovered from ``snapshot + WAL tail``
        (replayed off-lock; bumps the epoch).  Returns the new epoch."""
        return self._manager.recover(snapshot_path, wal_path, mmap=mmap, sync=sync)

    # ------------------------------------------------------------------
    # Observability and lifecycle
    # ------------------------------------------------------------------

    @property
    def manager(self) -> EngineManager:
        return self._manager

    @property
    def cache(self) -> Optional[ResultCache]:
        return self._cache

    @property
    def epoch(self) -> int:
        return self._manager.epoch

    @property
    def engine(self) -> Any:
        return self._manager.engine

    def metrics(self) -> Dict[str, object]:
        """The service's JSON-serializable metrics document.

        Schema: ``epoch`` (int), ``engine`` (class name), ``requests``
        (totals/batches/errors), ``cache`` (hit/miss/eviction counters,
        or ``None`` with the cache disabled), ``admission``
        (workers/queue/rejections), ``latency_ms`` (histogram with
        mean/max and interpolated p50/p90/p99), ``planner`` (when the
        engine embeds query planners: ``decisions``, ``selections`` per
        member and ``filter_latency_ms`` per member, summed over every
        planner — one per full-tier segment of a segmented engine;
        ``None`` otherwise).
        """
        # Deferred import: repro.exec.planner builds its members via
        # the engine registry, which this module's engines feed into.
        from repro.exec.planner import collect_planner_metrics

        engine, epoch = self._manager.current
        return {
            "epoch": epoch,
            "engine": type(engine).__name__,
            "requests": self._counters.as_dict(),
            "cache": self._cache.counters() if self._cache is not None else None,
            "admission": self._admission.counters(),
            "latency_ms": self._histogram.as_dict(),
            "planner": collect_planner_metrics(engine),
        }

    def metrics_json(self, *, indent: int | None = 2) -> str:
        """The metrics document rendered as JSON text."""
        return json.dumps(self.metrics(), indent=indent)

    def close(self) -> None:
        """Stop accepting requests and wait for the admitted ones.

        Also detaches this service's cache from the manager's epoch
        listeners, so a shared long-lived :class:`EngineManager` never
        keeps notifying (and keeping alive) a closed service's cache.
        """
        self._admission.shutdown(wait=True)
        if self._cache is not None:
            self._manager.remove_epoch_listener(self._cache.drop_stale)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        engine, epoch = self._manager.current
        cache = "on" if self._cache is not None else "off"
        return (
            f"QueryService(engine={type(engine).__name__}, epoch={epoch}, "
            f"cache={cache}, workers={self._admission.workers})"
        )
