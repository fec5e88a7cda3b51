"""Service observability: a latency histogram, request and planner counters.

The serving layer's contract is *measurable*: every request lands in a
fixed-bucket latency histogram (log-spaced bounds, so microsecond cache
hits and multi-millisecond cold queries are both resolved) and a small
set of counters.  Everything exports as plain JSON-serializable dicts —
:meth:`QueryService.metrics <repro.service.service.QueryService.metrics>`
assembles the full document from these plus the cache and admission
counters.

Percentiles are estimated from the histogram by linear interpolation
inside the bucket that holds the requested rank — the standard
Prometheus-style estimate: exact bucket counts, approximate quantiles,
bounded memory no matter how many requests are observed.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Dict, List, Optional

from repro.core.errors import ConfigurationError
from repro.core.stats import SearchStats

#: Histogram bucket upper bounds, in milliseconds.  Log-spaced from the
#: cache-hit regime (tens of microseconds) to multi-second outliers; the
#: final implicit bucket is +inf.
BUCKET_BOUNDS_MS = (
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
)

#: What :class:`~repro.exec.planner.PlannedSealSearch` prefixes to the
#: member it dispatched a query to, in that query's ``SearchStats.method``.
PLANNED = "planned:"


class LatencyHistogram:
    """Fixed-bucket latency histogram with interpolated percentiles.

    Thread-safe: ``observe`` is called from every worker and client
    thread; reads take the same lock and return consistent snapshots.
    """

    __slots__ = ("_lock", "_counts", "_count", "_sum_ms", "_max_ms")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = [0] * (len(BUCKET_BOUNDS_MS) + 1)
        self._count = 0
        self._sum_ms = 0.0
        self._max_ms = 0.0

    def observe(self, seconds: float) -> None:
        """Record one request latency (wall seconds)."""
        ms = seconds * 1000.0
        # The first bucket whose bound is >= ms: a latency exactly on a
        # bound counts in that bound's bucket.
        index = bisect_left(BUCKET_BOUNDS_MS, ms)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum_ms += ms
            if ms > self._max_ms:
                self._max_ms = ms

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def percentile(self, q: float) -> float:
        """Estimated q-th percentile in milliseconds (``0 < q <= 100``).

        Linear interpolation within the bucket holding the rank; the
        overflow bucket reports the observed maximum (the only honest
        number for an unbounded bucket).
        """
        if not 0.0 < q <= 100.0:
            raise ConfigurationError("percentile must be in (0, 100]")
        with self._lock:
            return self._percentile_locked(q)

    def _percentile_locked(self, q: float) -> float:
        if self._count == 0:
            return 0.0
        rank = math.ceil(self._count * q / 100.0)
        seen = 0
        for i, count in enumerate(self._counts):
            if count == 0:
                continue
            if seen + count >= rank:
                if i == len(BUCKET_BOUNDS_MS):
                    return self._max_ms
                lower = BUCKET_BOUNDS_MS[i - 1] if i else 0.0
                upper = BUCKET_BOUNDS_MS[i]
                fraction = (rank - seen) / count
                return min(lower + (upper - lower) * fraction, self._max_ms or upper)
            seen += count
        return self._max_ms  # pragma: no cover - unreachable (rank <= count)

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot (counts, mean/max, p50/p90/p99)."""
        with self._lock:
            buckets: List[Dict[str, object]] = [
                {"le_ms": bound, "count": count}
                for bound, count in zip(BUCKET_BOUNDS_MS, self._counts)
            ]
            buckets.append({"le_ms": "inf", "count": self._counts[-1]})
            mean = self._sum_ms / self._count if self._count else 0.0
            return {
                "count": self._count,
                "mean_ms": mean,
                "max_ms": self._max_ms,
                "p50_ms": self._percentile_locked(50.0),
                "p90_ms": self._percentile_locked(90.0),
                "p99_ms": self._percentile_locked(99.0),
                "buckets": buckets,
            }


class RequestCounters:
    """The service-level request tally (histogram-adjacent counters).

    Cache hit/miss and admission rejection counts live with their owning
    components; this tracks what only the service facade sees: how many
    requests arrived, how many arrived as batch members, and how many
    raised out of the execution path.
    """

    __slots__ = ("_lock", "requests", "batch_requests", "batches", "errors")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests = 0
        self.batch_requests = 0
        self.batches = 0
        self.errors = 0

    def request(self) -> None:
        with self._lock:
            self.requests += 1

    def batch(self, size: int) -> None:
        with self._lock:
            self.batches += 1
            self.batch_requests += size
            self.requests += size

    def error(self) -> None:
        with self._lock:
            self.errors += 1

    def as_dict(self) -> Dict[str, int]:
        with self._lock:
            return {
                "total": self.requests,
                "batches": self.batches,
                "batch_members": self.batch_requests,
                "errors": self.errors,
            }


class PlannerCounters:
    """The ``planner`` block, folded from each result the service executed.

    Each entry of its stats' ``per_source`` (one per segment), else the
    stats themselves, labelled ``planned:<member>`` is one selection of
    that member, its ``filter_seconds`` observed in the member's histogram.
    """

    __slots__ = ("_lock", "_histograms")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._histograms: Dict[str, LatencyHistogram] = {}

    def observe(self, stats: SearchStats) -> None:
        for entry in stats.per_source or (stats,):
            if entry.method.startswith(PLANNED):
                member = entry.method[len(PLANNED):]
                histogram = self._histograms.get(member)
                if histogram is None:
                    with self._lock:
                        histogram = self._histograms.setdefault(member, LatencyHistogram())
                histogram.observe(entry.filter_seconds)

    def as_dict(self) -> Optional[Dict[str, object]]:
        """``decisions``, ``selections`` and ``filter_latency_ms`` per
        member, or None before the first planned dispatch."""
        with self._lock:
            histograms = sorted(self._histograms.items())
        if not histograms:
            return None
        latency: Dict[str, Dict[str, object]] = {}
        for member, histogram in histograms:
            snapshot = histogram.as_dict()
            latency[member] = {key: snapshot[key] for key in ("count", "mean_ms", "p50_ms", "p99_ms")}
        selections = {member: snapshot["count"] for member, snapshot in latency.items()}
        return {
            "decisions": sum(selections.values()),
            "selections": selections,
            "filter_latency_ms": latency,
        }
