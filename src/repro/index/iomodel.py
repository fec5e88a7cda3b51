"""Disk I/O cost model: page-read accounting with an LRU buffer pool.

The paper's indexes are *disk-resident* (4 KB pages, Section 6.1); its
elapsed times therefore price every probed inverted list and every
visited IR-tree node at one-or-more page reads.  This repo runs in
memory, which flatters methods that touch many small structures — most
visibly the IR-tree, whose per-node inverted files are nearly free in
RAM but cost a page fault each on disk.

:class:`BufferPool` + :func:`charge_method_io` retrofit the disk story:
replay a workload against a built method, charge each probe the pages
its data occupies, and report logical reads, physical reads (misses) and
the modelled I/O time.  The ablation bench uses this to show that under
the paper's storage assumptions the method ordering matches Figure 16 —
including the IR-tree falling behind the Spatial baseline.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, List, Sequence

from repro.baselines.irtree import IRTreeSearch
from repro.baselines.keyword_first import KeywordFirstSearch
from repro.baselines.spatial_first import SpatialFirstSearch
from repro.core.errors import ConfigurationError
from repro.core.method import SearchMethod
from repro.core.objects import Query
from repro.core.similarity import filter_threshold
from repro.filters.base import FULL_SCAN
from repro.index.storage import BOUND_BYTES, OID_BYTES, PAGE_BYTES
from repro.rtree import Node


class BufferPool:
    """An LRU page cache with hit/miss accounting.

    Args:
        capacity_pages: Pages held in memory; 0 means every access is a
            physical read (cold disk).

    Examples:
        >>> pool = BufferPool(capacity_pages=1)
        >>> pool.access(("list", "tea", 0)); pool.access(("list", "tea", 0))
        >>> (pool.physical_reads, pool.logical_reads)
        (1, 2)
    """

    def __init__(self, capacity_pages: int = 1024) -> None:
        if capacity_pages < 0:
            raise ConfigurationError("capacity_pages must be non-negative")
        self.capacity = capacity_pages
        self._pages: OrderedDict[Hashable, None] = OrderedDict()
        self.logical_reads = 0
        self.physical_reads = 0

    def access(self, page_id: Hashable) -> bool:
        """Touch one page; returns True on a cache hit."""
        self.logical_reads += 1
        if self.capacity == 0:
            self.physical_reads += 1
            return False
        if page_id in self._pages:
            self._pages.move_to_end(page_id)
            return True
        self.physical_reads += 1
        self._pages[page_id] = None
        if len(self._pages) > self.capacity:
            self._pages.popitem(last=False)
        return False

    def access_run(self, key: Hashable, num_pages: int) -> None:
        """Touch ``num_pages`` consecutive pages of one structure."""
        for i in range(num_pages):
            self.access((key, i))

    def reset_counters(self) -> None:
        self.logical_reads = 0
        self.physical_reads = 0


@dataclass(frozen=True, slots=True)
class IOReport:
    """Modelled I/O for one method over one workload.

    Attributes:
        method: Registry/display name.
        logical_reads: Page touches (cache hits included).
        physical_reads: Page misses = modelled disk reads.
        io_ms_per_query: Physical reads × per-read latency / queries.
    """

    method: str
    logical_reads: int
    physical_reads: int
    io_ms_per_query: float


def _pages_for_bytes(num_bytes: int) -> int:
    return max(1, (num_bytes + PAGE_BYTES - 1) // PAGE_BYTES)


def _posting_pages(entries: int, bounds: int) -> int:
    return _pages_for_bytes(entries * (OID_BYTES + bounds * BOUND_BYTES))


def charge_method_io(
    method: SearchMethod,
    queries: Sequence[Query],
    *,
    pool: BufferPool | None = None,
    read_latency_ms: float = 0.05,
) -> IOReport:
    """Replay a workload, charging page reads per the method's structure.

    Charging rules (mirroring the paper's disk layout):

    * signature filters (anything with ``probes``, see
      :mod:`repro.filters.base`) — for each list the filter's own
      ``probes(query)`` names, the pages holding the head its primary
      bound cuts, one page at least (the list must be opened to find the
      head empty); a hybrid key nothing was posted to has no list and
      costs nothing, a full-scan query opens no list at all.  Exactly
      the lists ``candidates`` opens and the entries it reports as
      retrieved — for a ``prefix_pruning=False`` filter, its whole
      signature's lists in full;
    * keyword-first — every probed token list in full (no bounds);
    * spatial-first / IR-tree — one page per visited R-tree node, plus
      (IR-tree) the pages of each visited node's inverted file.

    Args:
        method: A built search method.
        queries: The workload to replay.
        pool: Shared buffer pool (fresh 1024-page pool by default).
        read_latency_ms: Cost per physical read (50 µs ≈ a fast SSD; the
            paper's 2012 SATA disks were ~100× worse, which only widens
            the gaps this model demonstrates).

    Raises:
        ConfigurationError: If the method type is not modelled.
    """
    if pool is None:
        pool = BufferPool(capacity_pages=1024)
    pool.reset_counters()
    for query in queries:
        _charge_one(method, query, pool)
    return IOReport(
        method=getattr(method, "name", type(method).__name__),
        logical_reads=pool.logical_reads,
        physical_reads=pool.physical_reads,
        io_ms_per_query=pool.physical_reads * read_latency_ms / max(1, len(queries)),
    )


def _charge_one(method: SearchMethod, query: Query, pool: BufferPool) -> None:
    if hasattr(method, "probes"):
        _charge_probes(method, query, pool)
    elif isinstance(method, KeywordFirstSearch):
        for token in query.tokens:
            entries = method.index.list_length(method.token_ids.get(token, -1))
            if entries:
                pool.access_run(("kw", token), _posting_pages(entries, 0))
    elif isinstance(method, IRTreeSearch):
        _charge_irtree(method, query, pool)
    elif isinstance(method, SpatialFirstSearch):
        _charge_rtree_nodes(method, query, pool)
    else:
        raise ConfigurationError(
            f"no I/O model for method {type(method).__name__}; "
            "naive search has no index to charge"
        )


def _charge_probes(method: SearchMethod, query: Query, pool: BufferPool) -> None:
    probes = method.probes(query)
    if probes is FULL_SCAN:
        return
    codes, bound, t_bound = probes
    index = method.index
    for code in codes:
        if t_bound is not None and code not in index:
            continue
        scanned = len(index.probe(code, bound))
        pool.access_run(("sig", code), _posting_pages(scanned, 1 if t_bound is None else 2))


def _charge_irtree(method: IRTreeSearch, query: Query, pool: BufferPool) -> None:
    c_r = filter_threshold(query.tau_r, query.region.area)
    c_t = filter_threshold(query.tau_t, method.weighter.total_weight(query.tokens))
    weight = method.weighter.weight
    node_tokens = method._node_tokens
    stack: List[Node] = [method.rtree.root] if len(method.rtree) else []
    while stack:
        node = stack.pop()
        pool.access(("irnode", id(node)))
        tokens = node_tokens[node]
        # The node inverted file: one key+pointer pair per distinct token.
        pool.access_run(("irtok", id(node)), _pages_for_bytes(len(tokens) * 16))
        if c_t > 0.0:
            overlap = sum(weight(t) for t in query.tokens if t in tokens)
            if overlap < c_t:
                continue
        if node.is_leaf:
            continue
        for entry in node.entries:
            if entry.mbr.intersection_area(query.region) >= c_r:
                stack.append(entry.child)


def _charge_rtree_nodes(method: SpatialFirstSearch, query: Query, pool: BufferPool) -> None:
    if query.tau_r <= 0.0:
        return
    c_r = filter_threshold(query.tau_r, query.region.area)
    stack: List[Node] = [method.rtree.root] if len(method.rtree) else []
    while stack:
        node = stack.pop()
        pool.access(("spnode", id(node)))
        if node.is_leaf:
            continue
        for entry in node.entries:
            if entry.mbr.intersection_area(query.region) >= c_r:
                stack.append(entry.child)


def compare_methods_io(
    methods: Dict[str, SearchMethod],
    queries: Sequence[Query],
    *,
    pool_pages: int = 1024,
    read_latency_ms: float = 0.05,
) -> Dict[str, IOReport]:
    """One IOReport per method over the same workload (fresh pool each)."""
    return {
        name: charge_method_io(
            method,
            queries,
            pool=BufferPool(pool_pages),
            read_latency_ms=read_latency_ms,
        )
        for name, method in methods.items()
    }
