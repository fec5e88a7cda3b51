"""``GridFilter`` — Sig-Filter(+) over grid-based signatures (Section 4).

Grid cells intersecting a region form its spatial signature (Definition
4); weights are intersection areas, the threshold is ``c_R = τ_R·|q.R|``
(Lemma 1), the global order is ascending ``count(g)``, and threshold
bounds per posting realise Figure 5's "inverted index with threshold
bounds".
"""

from __future__ import annotations

from typing import Sequence

from repro.core.objects import Query, SpatioTextualObject
from repro.filters.base import SingleSchemeFilter
from repro.geometry import Rect
from repro.signatures.spatial import GridScheme
from repro.text.weights import TokenWeighter


class GridFilter(SingleSchemeFilter):
    """Grid signature filtering (``GridFilter(p)`` in the experiments).

    Args:
        objects: The corpus.
        weighter: Corpus idf statistics (verification needs them).
        granularity: Cells per side ``p`` (the paper sweeps 64 … 8192).
        space: Partitioned space; defaults to the corpus MBR.
        order: Global cell order (ablation hook; paper uses
            ``"count_asc"``).
        prefix_pruning: False reverts to the plain Sig-Filter.

    Only ``τR == 0`` is degenerate for grids: a query region with zero
    area still owns a cell, and any object tying a positive spatial
    Jaccard with it must share that cell, so ``c_R == 0`` from a
    degenerate region needs no fallback.
    """

    name = "grid"

    def __init__(
        self,
        objects: Sequence[SpatioTextualObject],
        weighter: TokenWeighter | None = None,
        *,
        granularity: int = 256,
        space: Rect | None = None,
        order: str = "count_asc",
        prefix_pruning: bool = True,
    ) -> None:
        scheme = GridScheme.from_corpus(objects, granularity, space=space, order=order)
        super().__init__(objects, scheme, weighter, prefix_pruning=prefix_pruning)
        self.granularity = granularity

    def _is_degenerate(self, query: Query) -> bool:
        return query.tau_r <= 0.0
