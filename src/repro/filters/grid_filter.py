"""``GridFilter`` — Sig-Filter+ over grid-based signatures (Section 4).

Grid cells intersecting a region form its spatial signature (Definition
4); weights are intersection areas, the threshold is ``c_R = τ_R·|q.R|``
(Lemma 1), the global order is ascending ``count(g)``, and threshold
bounds per posting realise Figure 5's "inverted index with threshold
bounds".
"""

from __future__ import annotations

from repro.core.objects import Query
from repro.filters.base import FULL_SCAN, Probes, SingleSchemeFilter
from repro.geometry import Rect
from repro.index.storage import CELL_KEY_BYTES, IndexSizeReport, measure_index
from repro.signatures.prefix import prefix_elements
from repro.signatures.query import compile_query
from repro.signatures.spatial import GridScheme


class GridFilter(SingleSchemeFilter):
    """Grid signature filtering (``GridFilter(p)`` in the experiments).

    A cell's code is its id.

    Args:
        objects: The corpus.
        weighter: Corpus idf statistics (verification needs them).
        granularity: Cells per side ``p`` (the paper sweeps 64 … 8192).
        space: Partitioned space; defaults to
            :func:`~repro.geometry.rect.corpus_space` of the regions.

    Only ``τR == 0`` is degenerate for grids: a query region with zero
    area still owns a cell, and any object tying a positive spatial
    Jaccard with it must share that cell, so ``c_R == 0`` from a
    degenerate region needs no fallback.  A query region with an infinite
    edge has no grid signature; it too is a full scan, and the exact
    verifier decides.
    """

    name = "grid"

    def _build(self, *, granularity: int = 256, space: Rect | None = None):
        self.granularity = granularity
        self.scheme, sizes, cells, bounds, block = GridScheme.from_corpus(
            self.corpus, granularity, space=space
        )
        self._load(sizes, cells, bounds)
        return block, None

    def probes(self, query: Query) -> Probes:
        query = compile_query(query, self.weighter)
        if query.tau_r <= 0.0 or not query.region.is_finite:
            return FULL_SCAN
        prefix = prefix_elements(self.scheme.signature_of_region(query.region), query.c_r)
        return [cell for cell, _ in prefix], query.c_r, None

    def index_size(self) -> IndexSizeReport:
        return measure_index(self.index, bounds_per_posting=1, cell_bytes=CELL_KEY_BYTES)
