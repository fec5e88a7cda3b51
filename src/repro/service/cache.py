"""The result cache: LRU + TTL, keyed on canonicalized (query, epoch).

SEAL's evaluation workloads (and any real map service) repeat queries:
the same hot regions and token sets arrive over and over, and a full
filter-and-verify trip costs milliseconds where a dict lookup costs
microseconds.  The cache exploits that — with two correctness rules the
serving layer is built around:

**Invalidation is by construction, not by bookkeeping.**  Every key
embeds the engine *epoch* (the :class:`~repro.service.manager.
EngineManager` version counter, bumped by every answer-affecting
mutation).  A cached entry therefore can never be served after the
engine changed: the post-mutation epoch produces different keys, and the
stale entries simply stop being reachable.  :meth:`drop_stale` lets the
manager additionally free them eagerly on a bump — an optimisation, not
a correctness requirement.

**Entries are defensive copies, both ways.**  ``put`` stores a copy of
the result, so the client that computed it can mutate its own copy
(e.g. merge stats into workload totals) without poisoning the cache;
``get`` hands every hit a *fresh* copy, so two clients hitting the same
entry never alias one mutable :class:`~repro.core.stats.SearchStats`.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.core.objects import Query
from repro.core.stats import SearchResult

#: A canonical cache key: epoch + the query's value identity.
CacheKey = Tuple[int, Tuple[float, float, float, float], Tuple[str, ...], float, float]


def canonical_key(epoch: int, query: Query) -> CacheKey:
    """The cache key of ``query`` against engine version ``epoch``.

    Token sets canonicalize to a sorted tuple, so any two queries equal
    as values — regardless of token iteration order or how the frozenset
    was built — share one entry.
    """
    region = query.region
    return (
        epoch,
        (region.x1, region.y1, region.x2, region.y2),
        tuple(sorted(query.tokens)),
        query.tau_r,
        query.tau_t,
    )


class ResultCache:
    """A bounded LRU result cache with optional TTL expiry.

    Args:
        capacity: Maximum live entries; inserting past it evicts the
            least-recently-used entry.
        ttl: Seconds an entry stays servable; ``None`` disables expiry.
            Expired entries count as misses (and are removed on sight).
        clock: Monotonic time source, injectable for deterministic tests.

    Thread-safe; every operation holds one internal lock (the critical
    sections are dict moves, far cheaper than the queries being saved).
    """

    def __init__(
        self,
        capacity: int = 1024,
        *,
        ttl: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError("cache capacity must be a positive int")
        if ttl is not None and ttl <= 0.0:
            raise ConfigurationError("cache ttl must be positive seconds or None")
        self.capacity = capacity
        self.ttl = ttl
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: "OrderedDict[CacheKey, Tuple[float, SearchResult]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0
        self.stores = 0
        self.invalidated = 0
        self.stale_puts = 0
        #: Epochs below this were already purged by :meth:`drop_stale`;
        #: a late put for one would be unreachable garbage (see ``put``).
        self._epoch_floor = 0

    def get(self, epoch: int, query: Query) -> Optional[SearchResult]:
        """A fresh copy of the cached result, or None on miss/expiry."""
        key = canonical_key(epoch, query)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                expires_at, result = entry
                if self.ttl is None or self._clock() < expires_at:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return result.copy()
                del self._entries[key]
                self.expirations += 1
            self.misses += 1
            return None

    def put(self, epoch: int, query: Query, result: SearchResult) -> None:
        """Store a defensive copy of ``result`` under the epoch-keyed slot.

        A put for an epoch older than the last :meth:`drop_stale` purge
        is refused: the entry could never be served (current keys embed
        a newer epoch) yet would consume capacity and evict live
        entries.  This closes the window where a query pins epoch E,
        the engine bumps to E+1 mid-flight, and the result lands after
        the purge.
        """
        key = canonical_key(epoch, query)
        expires_at = self._clock() + self.ttl if self.ttl is not None else 0.0
        with self._lock:
            if epoch < self._epoch_floor:
                self.stale_puts += 1
                return
            self._entries[key] = (expires_at, result.copy())
            self._entries.move_to_end(key)
            self.stores += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def drop_stale(self, epoch: int) -> int:
        """Eagerly free entries whose epoch is not ``epoch``.

        Purely a memory optimisation — stale epochs are unreachable by
        keying either way — called by the manager on epoch bumps so a
        churn-heavy service doesn't hold dead answers until LRU pressure
        evicts them.  Returns the number of entries dropped.
        """
        with self._lock:
            self._epoch_floor = max(self._epoch_floor, epoch)
            stale = [key for key in self._entries if key[0] != epoch]
            for key in stale:
                del self._entries[key]
            self.invalidated += len(stale)
            return len(stale)

    def clear(self) -> None:
        with self._lock:
            self.invalidated += len(self._entries)
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Hits over lookups so far (0.0 when nothing was looked up)."""
        with self._lock:
            lookups = self.hits + self.misses
            return self.hits / lookups if lookups else 0.0

    def counters(self) -> Dict[str, object]:
        """JSON-serializable cache accounting."""
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "ttl_seconds": self.ttl,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hits / lookups if lookups else 0.0,
                "stores": self.stores,
                "evictions": self.evictions,
                "expirations": self.expirations,
                "invalidated": self.invalidated,
                "stale_puts": self.stale_puts,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResultCache(size={len(self)}, capacity={self.capacity}, "
            f"ttl={self.ttl}, hits={self.hits}, misses={self.misses})"
        )
