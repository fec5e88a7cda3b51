"""Grid-based spatial signatures (Section 4.1).

The spatial signature of a region is the set of grid cells it intersects,
each weighted by the intersection area ``w(g|·) = |g ∩ ·.R|``.  The
signature similarity

    sim(S_R(q), S_R(o)) = Σ_{g ∈ common} min(w(g|q), w(g|o))

upper-bounds the true overlap ``|q.R ∩ o.R|`` (each term bounds the
overlap inside its cell), so ``sim_R(q,o) ≥ τ_R`` implies the signature
similarity reaches ``c_R = τ_R · |q.R|`` — Lemma 1.

The global cell order is the paper's ascending ``count(g)`` (cells
touched by few objects first, Section 4.2), ties broken by cell id.  The
paper leaves other orders to future work (footnote 4), and so does this
repository.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Sequence, Tuple

from repro.core.errors import ConfigurationError
from repro.core.objects import Query, SpatioTextualObject
from repro.core.similarity import filter_threshold
from repro.geometry import Rect
from repro.geometry.rect import corpus_space
from repro.grid.uniform import UniformGrid


class GridScheme:
    """Grid-cell signatures over a fixed uniform grid.

    Build with :meth:`from_corpus`, which derives the space (the MBR of
    all object regions), counts ``count(g)`` per cell, and fixes the
    global order: ascending ``count(g)``, then cell id.

    Args:
        grid: The uniform partition generating signature elements.
        ranks: Global order — ``cell id -> rank`` (lower probes first).
            Cells absent from the map (touched by no object at build time)
            are ranked after all known cells, again by cell id; they occur
            when a query region strays into empty space.
    """

    __slots__ = ("grid", "_ranks", "_unseen_base")

    element_kind = "cell"

    def __init__(self, grid: UniformGrid, ranks: Dict[int, int]) -> None:
        self.grid = grid
        self._ranks = ranks
        self._unseen_base = len(ranks)

    @classmethod
    def from_corpus(
        cls,
        objects: Sequence[SpatioTextualObject] | Sequence[Rect],
        granularity: int,
        *,
        space: Rect | None = None,
    ) -> "GridScheme":
        """Build a scheme from the corpus (Section 4.1 + the 4.2 order).

        Args:
            objects: Corpus objects or bare regions.
            granularity: Cells per side.
            space: Partitioned space; defaults to
                :func:`~repro.geometry.rect.corpus_space` of the regions.

        Raises:
            ConfigurationError: On an empty corpus.
        """
        regions = [
            obj.region if isinstance(obj, SpatioTextualObject) else obj for obj in objects
        ]
        if not regions:
            raise ConfigurationError("GridScheme.from_corpus requires a non-empty corpus")
        grid = UniformGrid(space if space is not None else corpus_space(regions), granularity)
        counts: Counter[int] = Counter()
        for region in regions:
            for cell in grid.cells_overlapping(region):
                counts[cell] += 1
        ordered = sorted(counts, key=lambda cell: (counts[cell], cell))
        return cls(grid, {cell: rank for rank, cell in enumerate(ordered)})

    # ------------------------------------------------------------------
    # Scheme interface
    # ------------------------------------------------------------------

    def rank(self, cell: int) -> int:
        rank = self._ranks.get(cell)
        if rank is None:
            # Unseen cells sort after every indexed cell; relative order by
            # cell id keeps the order total and deterministic.
            return self._unseen_base + cell
        return rank

    def object_signature(self, obj: SpatioTextualObject) -> List[Tuple[int, float]]:
        """``S_R(o)`` as (cell, |g∩o.R|) pairs in global order (Def. 4)."""
        return self.signature_of_region(obj.region)

    def query_signature(self, query: Query) -> List[Tuple[int, float]]:
        return self.signature_of_region(query.region)

    def signature_of_region(self, region: Rect) -> List[Tuple[int, float]]:
        pairs = self.grid.signature(region)
        pairs.sort(key=lambda item: self.rank(item[0]))
        return pairs

    def threshold(self, query: Query) -> float:
        """``c_R = τ_R · |q.R|`` (Lemma 1), through the filter-bound
        contract (:func:`~repro.core.similarity.filter_threshold`)."""
        return filter_threshold(query.tau_r, query.region.area)

