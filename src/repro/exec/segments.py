"""The engine (``SealSearch``): immutable segments + write buffer (LSM-style).

SEAL's signatures are corpus-dependent (idf weights, cell orders, HSS
partitions), so the static indexes cannot absorb writes in place, and
rebuilding the whole index per batch of writes is O(n) each time.  This
module is the standard streaming-systems design (FAST, Mahmood et al.):

* **Write buffer** — inserts append to a small in-memory pool that is
  scanned *exactly* at query time (the pool is bounded, so this is
  cheap and always answer-correct).  The scan's state (token totals,
  box block, the local→global oid list) grows by one entry per
  insert; it is rebuilt only when the weighter it was computed against
  is replaced or a buffered object is deleted;
* **Immutable segments** — when the buffer reaches ``buffer_capacity``
  it is *sealed*: an index is built over just those objects.  Which
  index is a function of the segment's size alone (**size-tiered
  indexing**): below :data:`FULL_INDEX_MIN_OBJECTS` objects the
  :data:`LIGHT_METHOD` filter at its defaults, from there up the
  configured method with its knobs — usually first met by a merge
  output; only the constructor's initial segment gets the configured
  method at any size.  Every registry method yields a candidate superset
  for the one verifier, so the tier moves build cost and never an answer;
* **Tombstones** — deletes mark a global oid dead; dead oids are masked
  out of every answer and physically dropped the next time a merge
  touches their segment;
* **Size-tiered merges** — whenever ``merge_fanout`` segments occupy the
  same size tier they are compacted into one (live objects only).  Every
  object is therefore rebuilt O(log n) times over its lifetime instead
  of O(n / threshold) times, which is what makes sustained insert
  throughput possible.

Every mutation either completes or leaves the engine as it was: a seal,
a merge cascade or a compaction builds its replacement segments first
and moves engine state only once they all exist, so an index build that
raises (a bad knob, memory) loses nothing — and the durability layer
can roll the operation's log record back knowing log ≡ engine.

Searches fan out across segments plus the buffer through the canonical
:func:`~repro.exec.pipeline.execute_query` pipeline (a batch through one
batched pass per source) and merge per-source
:class:`~repro.core.stats.SearchStats` into one (counters and times sum
— the fan-out is serial, so summed seconds are the honest cost).  A
single source's result is the engine's as it stands, label included.

**Weighter semantics (idf drift).**  One engine-global
:class:`~repro.text.weights.TokenWeighter` is shared by every segment
*and* by verification, so all answers are internally consistent at all
times.  The weighter snapshots the live corpus at *full compaction
points* (construction over initial data, :meth:`compact`, or any merge
that leaves a single segment holding the entire corpus); between those
points idf weights drift from a from-scratch build — tokens inserted
since get the unknown-token maximum idf — and converge exactly at the
next compaction.  This is the same deferred-maintenance trade every
updatable text index makes.  While the engine has *no* sealed segment
yet (the empty bootstrap), the live set *is* the buffer, so the weighter
tracks it exactly and there is no drift at all.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence, Set

from repro.baselines.naive import NaiveSearch
from repro.core.engine import build_method, check_params, check_regions
from repro.core.objects import Query, SpatioTextualObject, make_corpus
from repro.core.stats import SearchResult, SearchStats
from repro.core.verification import Verifier
from repro.exec.pipeline import BatchExecutor, execute_query
from repro.geometry import Rect
from repro.index.storage import IndexSizeReport
from repro.signatures.query import compile_query
from repro.text.weights import TokenWeighter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.method import SearchMethod

#: A segment of at least this many objects is indexed with the engine's
#: configured method; a smaller one with :data:`LIGHT_METHOD`.  Measured
#: against the four-member ``planned`` portfolio that preceded the
#: threshold rule (tables in README "Updates: segmented engine"): the
#: light filter built 15-22× faster at every size; up to 1024 objects it
#: answered as fast or faster in every query regime, at 2048 it won three
#: of four (and their mean by 9 %) and lost spatial-only 1.6×.  With the
#: default ``buffer_capacity × merge_fanout`` = 1024 a first-tier merge
#: stays below it.
FULL_INDEX_MIN_OBJECTS = 2048

#: What a segment below :data:`FULL_INDEX_MIN_OBJECTS` is indexed with,
#: at the method's default knobs.
LIGHT_METHOD = "token"


def _empty_weighter() -> TokenWeighter:
    """The weighter of an engine that has never seen an object.

    ``|O| = 1`` with an empty vocabulary: every weight is 0, which is
    irrelevant (there is nothing to answer) and replaced the moment real
    data arrives.
    """
    return TokenWeighter.from_counts({}, 1)


def _relabelled(objects: Sequence[SpatioTextualObject]) -> List[SpatioTextualObject]:
    """``objects`` under dense local oids 0..n-1, as every index and the
    buffer scan address them."""
    return [
        SpatioTextualObject(i, obj.region, obj.tokens) for i, obj in enumerate(objects)
    ]


class _Segment:
    """One query source — a sealed index, or the write buffer's scan —
    plus its local→global oid mapping."""

    __slots__ = ("method", "to_global")

    def __init__(self, method: "SearchMethod", to_global: List[int]) -> None:
        self.method = method
        self.to_global = to_global

    def __len__(self) -> int:
        return len(self.to_global)


class _BufferScan:
    """The write buffer as a query source: every buffered object is a
    candidate of the one exact :class:`Verifier` (the two steps
    ``execute_query`` needs, no index)."""

    __slots__ = ("verifier",)
    name = NaiveSearch.name

    def __init__(self, verifier: Verifier) -> None:
        self.verifier = verifier

    def candidates(self, query: Query, stats: SearchStats) -> range:
        return range(len(self.verifier.corpus))


class SegmentedSealSearch:
    """Spatio-textual similarity search over ROI data (``SealSearch``).

    Reads: ``search``, ``search_query``, ``search_batch`` (a list of
    per-query results), ``object``, ``similarities``, ``len``.  Writes:
    :meth:`insert`, :meth:`delete`, :meth:`flush` and :meth:`compact`.
    May start empty.

    Args:
        data: Initial ``(region, tokens)`` pairs; indexed as one segment
            with ``method`` at any size (a full compaction point).  May
            be empty.
        method: Registry method name (default ``seal``, the paper's
            best) built over the initial segment and every later
            segment of at least :data:`FULL_INDEX_MIN_OBJECTS` objects;
            smaller later segments get :data:`LIGHT_METHOD`.
        buffer_capacity: Seal the write buffer into a segment once it
            holds this many objects.  ``None`` disables auto-sealing —
            the caller then controls sealing via :meth:`flush` /
            :meth:`compact`.
        merge_fanout: Merge whenever this many segments share a size
            tier (tier ``t`` holds segments of ``capacity·fanout^t`` to
            ``capacity·fanout^(t+1)`` objects).
        **params: Constructor knobs of ``method``, passed to every
            build of it (``granularity=...``, ``mt=...``, …).

    Raises:
        ConfigurationError: For an unknown method, or a knob it does not
            accept — here, not at the first seal; or, when ``method``
            partitions a space, a ``data`` region with an infinite edge.

    Examples:
        >>> engine = SealSearch([
        ...     (Rect(0, 0, 10, 10), {"coffee", "mocha"}),
        ...     (Rect(40, 40, 50, 50), {"tea"}),
        ... ], method="token")
        >>> list(engine.search(Rect(1, 1, 9, 9), {"coffee"}, tau_r=0.2, tau_t=0.3))
        [0]
        >>> engine = SealSearch(method="token")   # empty bootstrap
        >>> oid = engine.insert(Rect(0, 0, 10, 10), {"coffee"})
        >>> engine.delete(oid)
        True
        >>> len(engine)
        0
    """

    #: The buffer as a query source (see ``_buffer_scan``).  Derived and
    #: never pickled: an instance without one, fresh or just loaded from
    #: a snapshot of any age, reads this default and rebuilds on demand.
    _scan: _Segment | None = None

    def __init__(
        self,
        data: Iterable[tuple[Rect, Iterable[str]]] = (),
        method: str = "seal",
        *,
        buffer_capacity: int | None = 256,
        merge_fanout: int = 4,
        **params,
    ) -> None:
        if buffer_capacity is not None and buffer_capacity < 1:
            raise ValueError("buffer_capacity must be a positive int or None")
        if merge_fanout < 2:
            raise ValueError("merge_fanout must be at least 2")
        check_params(method, params)
        self._method_name = method
        self._params = dict(params)
        self.buffer_capacity = buffer_capacity
        self.merge_fanout = merge_fanout
        #: Full-compaction events (explicit or via an all-segment merge).
        self.compactions = 0
        self._live: Dict[int, SpatioTextualObject] = {}
        self._buffer: List[SpatioTextualObject] = []
        self._tombstones: Set[int] = set()
        self._segments: List[_Segment] = []
        self._next_oid = 0
        #: True while the weighter may lag the live corpus (idf drift).
        self._weights_stale = False
        #: True while the bootstrap-phase weighter must be lazily rebuilt
        #: from the buffer on next observation (see ``weighter``).
        self._weighter_dirty = False
        self._weighter = _empty_weighter()
        initial = make_corpus(data)
        check_regions(method, [obj.region for obj in initial])
        if initial:
            self._next_oid = len(initial)
            self._live = {obj.oid: obj for obj in initial}
            self._weighter = TokenWeighter(obj.tokens for obj in initial)
            self._segments = [self._build_segment(initial, self._weighter, tiered=False)]

    @property
    def weighter(self) -> TokenWeighter:
        """The engine-global idf weighter (see the module docstring).

        During the bootstrap phase mutations only mark it dirty; the
        rebuild from the buffer happens here, on first observation
        (query, seal, or direct access) — so a burst of k unsealed
        inserts costs O(k) bookkeeping, not k weighter rebuilds.
        """
        if self._weighter_dirty:
            self._weighter = (
                TokenWeighter(obj.tokens for obj in self._buffer)
                if self._buffer
                else _empty_weighter()
            )
            self._weighter_dirty = False
        return self._weighter

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def insert(self, region: Rect, tokens: Iterable[str]) -> int:
        """Add one object; returns its global oid (stable forever).

        Raises:
            ConfigurationError: If the configured method partitions a
                space and ``region`` has an infinite edge; nothing moved.
        """
        check_regions(self._method_name, [region])
        oid = self._next_oid
        self._next_oid += 1
        obj = SpatioTextualObject(oid, region, frozenset(tokens))
        self._live[oid] = obj
        self._buffer.append(obj)
        stale = self._weights_stale
        self._bookkeep_weights()
        if (
            self.buffer_capacity is not None
            and len(self._buffer) >= self.buffer_capacity
        ):
            try:
                self._seal_buffer()
            except BaseException:
                # The failed seal moved nothing; take the insert back too.
                self._next_oid = oid
                del self._live[oid]
                self._buffer.pop()
                self._weights_stale = stale
                self._weighter_dirty = not self._segments
                raise
        elif self._scan is not None:
            # Not reached by an insert that seals: the scan never sees
            # an object a failed seal has to take back.
            scan = self._scan
            scan.method.verifier.append(
                SpatioTextualObject(len(scan.to_global), obj.region, obj.tokens)
            )
            scan.to_global.append(oid)
        return oid

    def delete(self, oid: int) -> bool:
        """Tombstone one object; returns False if it was not live.

        Buffered objects are dropped outright; sealed objects stay in
        their segment until a merge physically removes them, masked out
        of every answer in the meantime.
        """
        obj = self._live.pop(oid, None)
        if obj is None:
            return False
        buffer = self._buffer
        # Oids are sequential and a seal empties the buffer, so the
        # buffer is sorted by oid and everything sealed sorts before it.
        if buffer and oid >= buffer[0].oid:
            del buffer[bisect_left(buffer, oid, key=attrgetter("oid"))]
            self._scan = None  # local ids past the gap shifted
        else:
            self._tombstones.add(oid)
        self._bookkeep_weights()
        return True

    def flush(self) -> None:
        """Seal the write buffer into a segment (merges may cascade)."""
        self._seal_buffer()

    def compact(self) -> None:
        """Merge everything into one segment and refresh idf weights.

        The full-compaction point: tombstoned objects are physically
        dropped, the weighter is rebuilt from the live corpus, and
        answers from here on exactly match a from-scratch build.
        No-op when already fully compacted and weights are fresh.
        """
        if (
            not self._weights_stale
            and not self._buffer
            and not self._tombstones
            and len(self._segments) <= 1
        ):
            return
        live = self._live_in_layout_order()
        weighter = TokenWeighter(obj.tokens for obj in live) if live else _empty_weighter()
        self._segments = [self._build_segment(live, weighter)] if live else []
        self._buffer = []
        self._scan = None
        self._tombstones = set()
        self._weighter = weighter
        self._weighter_dirty = False
        self._weights_stale = False
        self.compactions += 1

    # ------------------------------------------------------------------
    # Sealing and merging internals
    # ------------------------------------------------------------------

    def _bookkeep_weights(self) -> None:
        """After a mutation: track (or avoid) idf drift.

        With no sealed segment the live set *is* the buffer, so the
        weighter tracks it exactly — rebuilt lazily on observation (the
        ``weighter`` property), which keeps insert bursts O(1) per
        insert.  Once segments exist their indexes were built against
        the current weighter, which therefore must not change until the
        next full compaction — the drift trade.
        """
        if self._segments:
            self._weights_stale = True
        else:
            self._weighter_dirty = True
            self._weights_stale = False

    def _build_segment(
        self,
        objects: Sequence[SpatioTextualObject],
        weighter: TokenWeighter,
        *,
        tiered: bool = True,
    ) -> _Segment:
        """An index over ``objects`` (re-oided locally); moves no engine state.

        The one place a segment is made, and the one place the tier rule
        is read: which index is a pure function of ``len(objects)``, so
        WAL replay and replicas rebuild the layout the primary built.
        The initial segment (``tiered=False``) is never replayed: a log
        without a snapshot starts empty, and a snapshot carries it.
        """
        local = _relabelled(objects)
        if tiered and len(local) < FULL_INDEX_MIN_OBJECTS:
            method = build_method(local, LIGHT_METHOD, weighter)
        else:
            method = build_method(local, self._method_name, weighter, **self._params)
        return _Segment(method, [obj.oid for obj in objects])

    def _seal_buffer(self) -> None:
        if not self._buffer:
            return
        # A first seal from the bootstrap phase is itself a full
        # compaction point: force the lazy weighter rebuild *while the
        # buffer still holds the objects*, so the fresh segment carries
        # fresh weights.
        weighter = self.weighter
        segments = self._segments + [self._build_segment(self._buffer, weighter)]
        # Size-tiered compaction over the proposed layout: merge the
        # lowest tier holding >= fanout segments until none does.
        dropped: Set[int] = set()
        refreshed = False
        tombstones = self._tombstones
        while (group := self._mergeable(segments)) is not None:
            live = [
                self._live[oid]
                for segment in group
                for oid in segment.to_global
                if oid not in tombstones
            ]
            if len(group) == len(segments) and self._weights_stale:
                # The merge output will hold the entire corpus (the
                # buffer is being sealed away), so refresh the weighter
                # *before* building — a free full compaction.
                weighter = (
                    TokenWeighter(obj.tokens for obj in live) if live else _empty_weighter()
                )
                refreshed = True
            segments = [s for s in segments if s not in group]
            if live:
                segments.append(self._build_segment(live, weighter))
            for segment in group:
                dropped.update(segment.to_global)
        # Every index exists: adopt the layout.
        self._segments = segments
        self._buffer = []
        self._scan = None
        tombstones -= dropped
        if refreshed:
            self._weighter = weighter
            self._weighter_dirty = False
            self._weights_stale = False
            self.compactions += 1

    def _tier(self, size: int) -> int:
        base = max(1, self.buffer_capacity or 1)
        tier = 0
        while size >= base * self.merge_fanout ** (tier + 1):
            tier += 1
        return tier

    def _mergeable(self, segments: List[_Segment]) -> List[_Segment] | None:
        """The segments of the lowest size tier holding >= fanout of them."""
        by_tier: Dict[int, List[_Segment]] = {}
        for segment in segments:
            by_tier.setdefault(self._tier(len(segment)), []).append(segment)
        for tier in sorted(by_tier):
            if len(by_tier[tier]) >= self.merge_fanout:
                return by_tier[tier]
        return None

    def _live_in_layout_order(self) -> List[SpatioTextualObject]:
        """Live objects, segments first (in segment order) then buffer."""
        tombstones = self._tombstones
        out = [
            self._live[oid]
            for segment in self._segments
            for oid in segment.to_global
            if oid not in tombstones
        ]
        out.extend(self._buffer)
        return out

    def _buffer_scan(self) -> _Segment:
        """The write buffer as a query source.

        Kept across inserts (``insert`` appends a row) and rebuilt here
        only when missing — first query, snapshot load, a buffered
        delete — or computed against a weighter since replaced (every
        bootstrap-phase mutation, a compaction).
        """
        weighter = self.weighter
        scan = self._scan
        if scan is None or scan.method.verifier.weighter is not weighter:
            scan = self._scan = _Segment(
                _BufferScan(Verifier(_relabelled(self._buffer), weighter)),
                [obj.oid for obj in self._buffer],
            )
        return scan

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def _sources(self) -> List[_Segment]:
        """What a query fans out over: every segment, then the buffer."""
        if not self._buffer:
            return self._segments
        return self._segments + [self._buffer_scan()]

    def _merge_source_results(
        self, results: Sequence[SearchResult], sources: Sequence[_Segment]
    ) -> SearchResult:
        tombstones = self._tombstones
        if len(sources) == 1:
            # One source answers as a single index does: its own result,
            # label included, with ``per_source`` left empty.
            (result,) = results
            if result.answers:
                to_global = sources[0].to_global
                global_oids = (to_global[local] for local in result.answers)
                result.answers = sorted(oid for oid in global_oids if oid not in tombstones)
                result.stats.results = len(result.answers)
            return result
        answers: List[int] = []
        # The aggregate sums counters but keeps attribution: each source's
        # stats (with its own ``method`` label, stamped by execute_query)
        # survives in ``per_source``, which the service's ``planner``
        # metrics block and ``query --explain`` read to tell which
        # segment index did the work.
        stats = SearchStats(method=f"segmented:{self._method_name}")
        for result, source in zip(results, sources):
            to_global = source.to_global
            stats.merge(result.stats)
            stats.per_source.append(result.stats)
            answers.extend(
                oid
                for oid in (to_global[local] for local in result.answers)
                if oid not in tombstones
            )
        answers.sort()
        stats.results = len(answers)
        return SearchResult(answers=answers, stats=stats)

    def search_query(self, query: Query) -> SearchResult:
        """Fan one query, compiled once, over every segment plus the buffer; merge answers."""
        sources = self._sources()
        query = compile_query(query, self.weighter)
        results = [execute_query(source.method, query) for source in sources]
        return self._merge_source_results(results, sources)

    def search(
        self,
        region: Rect,
        tokens: Iterable[str],
        tau_r: float,
        tau_t: float,
    ) -> SearchResult:
        """Find all live objects with ``simR ≥ tau_r`` and ``simT ≥ tau_t``."""
        query = Query(region=region, tokens=frozenset(tokens), tau_r=tau_r, tau_t=tau_t)
        return self.search_query(query)

    def search_batch(self, queries: Sequence[Query]) -> List[SearchResult]:
        """Each query's :meth:`search_query` result, in order.

        Each query is compiled once; each source then answers the whole
        batch in one :class:`~repro.exec.pipeline.BatchExecutor` trip (one
        batched filter and verify pass where its method has a batched
        filter step), and the sources' results merge query by query.
        """
        sources = self._sources()
        weighter = self.weighter
        queries = [compile_query(query, weighter) for query in queries]
        by_source = [BatchExecutor().run(source.method, queries) for source in sources]
        return [
            self._merge_source_results([results[i] for results in by_source], sources)
            for i in range(len(queries))
        ]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def object(self, oid: int) -> SpatioTextualObject:
        """Resolve a live oid back to its object (KeyError when deleted)."""
        try:
            return self._live[oid]
        except KeyError:
            raise KeyError(f"oid {oid} is not live (never inserted, or deleted)") from None

    def __len__(self) -> int:
        """Live objects (sealed + buffered, tombstoned excluded)."""
        return len(self._live)

    @property
    def pending(self) -> int:
        """Objects currently in the write buffer."""
        return len(self._buffer)

    @property
    def next_oid(self) -> int:
        """The oid the next :meth:`insert` will assign.

        The durability layer logs it ahead of the insert so recovery can
        verify replay assigns identical oids (oids are sequential and
        never reused, so the sequence is deterministic from the op log).
        """
        return self._next_oid

    def config(self) -> dict:
        """The constructor knobs that rebuild an equivalent empty engine.

        The write-ahead log stores this as its first record, which makes
        a WAL self-describing: recovery can bootstrap from an empty
        engine with identical sealing/merging behavior even when no
        snapshot exists yet.
        """
        return {
            "method": self._method_name,
            "buffer_capacity": self.buffer_capacity,
            "merge_fanout": self.merge_fanout,
            "params": dict(self._params),
        }

    @property
    def tombstones(self) -> int:
        """Deleted objects still physically present in a segment."""
        return len(self._tombstones)

    @property
    def num_segments(self) -> int:
        return len(self._segments)

    def segment_sizes(self) -> List[int]:
        """Physical size of each segment (tombstoned objects included)."""
        return [len(segment) for segment in self._segments]

    def segment_methods(self) -> List["SearchMethod"]:
        """The per-segment index methods, in segment order."""
        return [segment.method for segment in self._segments]

    def similarities(self, query: Query, oid: int) -> tuple[float, float]:
        """The exact (spatial, textual) similarities of one live object."""
        from repro.core.similarity import spatial_similarity, textual_similarity

        obj = self.object(oid)
        return (
            spatial_similarity(query.region, obj.region),
            textual_similarity(query.tokens, obj.tokens, self.weighter),
        )

    def index_size(self) -> IndexSizeReport | None:
        """Summed per-segment accounting; None if any segment lacks it.

        Each segment reports the index its size tier built (see
        :data:`FULL_INDEX_MIN_OBJECTS`; ``snapshot_manifest()`` names it
        per segment), so bytes per object depend on how the corpus is
        split across tiers, not only on the configured method.
        """
        reports = [segment.method.index_size() for segment in self._segments]
        if not reports or any(report is None for report in reports):
            return None
        return IndexSizeReport.total(reports)

    def snapshot_manifest(self) -> dict:
        """Segment/tombstone accounting stored in snapshot envelopes."""
        tombstones = self._tombstones
        return {
            "kind": "segmented",
            "method": self._method_name,
            "next_oid": self._next_oid,
            "live": len(self._live),
            "buffer": len(self._buffer),
            "tombstones": len(tombstones),
            "compactions": self.compactions,
            "segments": [
                {
                    "objects": len(segment),
                    "live": sum(1 for oid in segment.to_global if oid not in tombstones),
                    "tier": self._tier(len(segment)),
                    "method": segment.method.name,
                }
                for segment in self._segments
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SegmentedSealSearch(live={len(self._live)}, method={self._method_name!r}, "
            f"segments={len(self._segments)}, buffered={len(self._buffer)}, "
            f"tombstones={len(self._tombstones)})"
        )

    # The buffer scan is derived state; rebuild it lazily after a
    # snapshot load rather than pickling a second copy of the buffer.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_scan", None)
        return state


#: The engine under its facade name: one class object.
SealSearch = SegmentedSealSearch
