"""The result cache: LRU, keyed on (epoch, query).

SEAL's evaluation workloads (and any real map service) repeat queries:
the same hot regions and token sets arrive over and over, and a full
filter-and-verify trip costs milliseconds where a dict lookup costs
microseconds.  The cache exploits that — with two correctness rules the
serving layer is built around:

**Invalidation is by construction, not by bookkeeping.**  A key is the
frozen :class:`~repro.core.objects.Query` itself — equal as a value
however its token set was built or its coordinates were spelled — paired
with the engine *epoch* (the :class:`~repro.service.service.
QueryService` version counter, bumped by every answer-affecting
mutation).  A cached entry therefore can never be served after the
engine changed: the post-mutation epoch produces different keys, and the
stale entries simply stop being reachable.  :meth:`drop_stale` lets the
service additionally free them eagerly on a bump — an optimisation, not
a correctness requirement.

**Entries are defensive copies, both ways.**  ``put`` stores a copy of
the result, so the client that computed it can mutate its own copy
(e.g. merge stats into workload totals) without poisoning the cache;
``get`` hands every hit a *fresh* copy, so two clients hitting the same
entry never alias one mutable :class:`~repro.core.stats.SearchStats`.

**An entry can also keep its answer's wire bytes.**  :meth:`get_encoded`
serves a hit as the bytes an ``encode`` callable made of the cached
result, computed on the entry's first such hit and kept beside the
result until the entry leaves — by eviction, :meth:`drop_stale` or
:meth:`clear`.  Bytes are immutable, so a hit served this way needs no
copy; the cache never learns what the encoding is.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.core.objects import Query
from repro.core.stats import SearchResult


class _Entry:
    """One cached answer: the private result, and its encoded form once
    a :meth:`ResultCache.get_encoded` hit has asked for it."""

    __slots__ = ("result", "encoded")

    def __init__(self, result: SearchResult) -> None:
        self.result = result
        self.encoded: Optional[bytes] = None


class ResultCache:
    """A bounded LRU result cache.

    Args:
        capacity: Maximum live entries; inserting past it evicts the
            least-recently-used entry.

    Thread-safe; every operation holds one internal lock (the critical
    sections are dict moves, far cheaper than the queries being saved).
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ConfigurationError("cache capacity must be a positive int")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[int, Query], _Entry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.stores = 0
        self.invalidated = 0
        self.stale_puts = 0
        #: Epochs below this were already purged by :meth:`drop_stale`;
        #: a late put for one would be unreachable garbage (see ``put``).
        self._epoch_floor = 0

    def get(self, epoch: int, query: Query) -> Optional[SearchResult]:
        """A fresh copy of the cached result, or None on a miss."""
        entry = self._lookup((epoch, query))
        return entry.result.copy() if entry is not None else None

    def get_encoded(
        self, epoch: int, query: Query, encode: Callable[[SearchResult], bytes]
    ) -> Optional[bytes]:
        """The cached result as ``encode`` turns it into bytes, or None
        on a miss.

        The first such hit on an entry encodes outside the lock (the
        cached result is private and never mutated, so that is safe) and
        keeps the bytes only if the entry is still cached by then.
        """
        key = (epoch, query)
        entry = self._lookup(key)
        if entry is None:
            return None
        encoded = entry.encoded
        if encoded is None:
            encoded = encode(entry.result)
            with self._lock:
                if self._entries.get(key) is entry:
                    entry.encoded = encoded
        return encoded

    def _lookup(self, key: Tuple[int, Query]) -> Optional[_Entry]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, epoch: int, query: Query, result: SearchResult) -> None:
        """Store a defensive copy of ``result`` under the epoch-keyed slot.

        A put for an epoch older than the last :meth:`drop_stale` purge
        is refused: the entry could never be served (current keys embed
        a newer epoch) yet would consume capacity and evict live
        entries.  This closes the window where a query pins epoch E,
        the engine bumps to E+1 mid-flight, and the result lands after
        the purge.
        """
        key = (epoch, query)
        with self._lock:
            if epoch < self._epoch_floor:
                self.stale_puts += 1
                return
            self._entries[key] = _Entry(result.copy())
            self._entries.move_to_end(key)
            self.stores += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def drop_stale(self, epoch: int) -> int:
        """Eagerly free entries whose epoch is not ``epoch``.

        Purely a memory optimisation — stale epochs are unreachable by
        keying either way — called by the service on epoch bumps so a
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
                "encoded": sum(entry.encoded is not None for entry in self._entries.values()),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hits / lookups if lookups else 0.0,
                "stores": self.stores,
                "evictions": self.evictions,
                "invalidated": self.invalidated,
                "stale_puts": self.stale_puts,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResultCache(size={len(self)}, capacity={self.capacity}, "
            f"hits={self.hits}, misses={self.misses})"
        )
