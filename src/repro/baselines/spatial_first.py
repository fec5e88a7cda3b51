"""The spatial-first baseline (Section 2.3).

An R-tree over object MBRs retrieves everything whose overlap with the
query region reaches ``cR = τR·|q.R|`` (a necessary condition for
``simR ≥ τR``), computes the exact spatial similarity, and keeps objects
with ``simR ≥ τR``; the textual check happens in verification.  Around
dense areas — exactly where LBS queries land — overlap alone prunes
poorly (the paper's motivating Twitter query overlapped ~8000 ROIs).
"""

from __future__ import annotations

from typing import Collection, List

from repro.core.method import SearchMethod
from repro.core.objects import Query
from repro.core.similarity import filter_threshold
from repro.core.stats import SearchStats
from repro.index.storage import PAGE_BYTES, IndexSizeReport
from repro.rtree import RTree
from repro.signatures.query import compile_query


class SpatialFirstSearch(SearchMethod):
    """Spatial-predicate-first baseline (``Spatial`` in Figures 16–17).

    Args:
        objects: The corpus.
        weighter: Corpus idf statistics.
        max_entries: R-tree fan-out.
    """

    name = "spatial-first"

    def _build(self, *, max_entries: int = 32):
        self.rtree = RTree.bulk_load(
            [(obj.region, obj.oid) for obj in self.corpus], max_entries=max_entries
        )
        return None, None

    def candidates(self, query: Query, stats: SearchStats) -> Collection[int]:
        query = compile_query(query, self.weighter)
        if query.tau_r <= 0.0:
            # A vacuous spatial predicate admits spatially disjoint objects.
            return self.all_oids()
        q_region = query.region
        q_area = q_region.area
        tau_r = query.tau_r
        hits = self.rtree.search_min_overlap(q_region, query.c_r)
        stats.entries_retrieved += len(hits)
        corpus = self.corpus
        out: List[int] = []
        for oid in hits:
            # The exact spatial Jaccard, held to the filter-bound contract.
            region = corpus[oid].region
            inter = q_region.intersection_area(region)
            union = q_area + region.area - inter
            if union > 0.0:
                similar = inter >= filter_threshold(tau_r, union)
            else:  # two degenerate regions: similar only when identical
                similar = region == q_region
            if similar:
                out.append(oid)
        return out

    def index_size(self) -> IndexSizeReport:
        """One 4 KB page per R-tree node, no inverted content."""
        nodes = self.rtree.node_count()
        return IndexSizeReport(
            num_lists=nodes,
            num_postings=len(self.rtree),
            directory_bytes=0,
            posting_bytes=nodes * PAGE_BYTES,
            page_bytes=nodes * PAGE_BYTES,
        )
