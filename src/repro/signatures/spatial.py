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

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.errors import ConfigurationError
from repro.core.objects import SpatioTextualObject
from repro.geometry import Rect
from repro.geometry.rect import corpus_space
from repro.grid.uniform import UniformGrid, region_block
from repro.signatures.prefix import segmented_suffix_bounds


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

    def __init__(self, grid: UniformGrid, ranks: Dict[int, int]) -> None:
        self.grid = grid
        self._ranks = ranks
        self._unseen_base = len(ranks)

    @classmethod
    def from_corpus(
        cls,
        objects: Sequence[SpatioTextualObject],
        granularity: int,
        *,
        space: Rect | None = None,
    ) -> Tuple["GridScheme", np.ndarray, np.ndarray, np.ndarray]:
        """Build a scheme from the corpus (Section 4.1 + the 4.2 order),
        together with every object's signature and its Lemma-3 bounds.

        The grid twin of ``TextualScheme.corpus_signatures``: the regions'
        coordinates are read once, and one :meth:`UniformGrid.signatures`
        pass over them yields ``count(g)`` and the postings both.

        Args:
            objects: The corpus.
            granularity: Cells per side.
            space: Partitioned space; defaults to
                :func:`~repro.geometry.rect.corpus_space` of the regions.

        Returns:
            ``(scheme, sizes, cells, bounds, block)`` — the scheme,
            ``|S_R(o)|`` per object, flat cell ids with each cell's
            threshold bound, object after object, each object's in global
            order, and the coordinates read
            (:func:`~repro.grid.uniform.region_block`), which the build
            hands its verifier.

        Raises:
            ConfigurationError: On an empty corpus, or one holding a region
                with an infinite edge (:func:`~repro.grid.uniform.region_block`).
        """
        regions = [obj.region for obj in objects]
        if not regions:
            raise ConfigurationError("GridScheme.from_corpus requires a non-empty corpus")
        block = region_block(regions)
        grid = UniformGrid(space if space is not None else corpus_space(regions), granularity)
        sizes, cells, weights = grid.signatures(block)
        # count(g) of every cell some region touches; ranked by ascending
        # (count, cell id).
        seen, which, counts = np.unique(cells, return_inverse=True, return_counts=True)
        by_rank = np.lexsort((seen, counts))
        rank = np.empty_like(by_rank)
        rank[by_rank] = np.arange(len(by_rank))
        # Each object's cells by rank: one sort keyed by (object, rank).
        order = np.lexsort((rank[which], np.repeat(np.arange(len(sizes)), sizes)))
        scheme = cls(grid, dict(zip(seen[by_rank].tolist(), range(len(seen)))))
        return scheme, sizes, cells[order], segmented_suffix_bounds(weights[order], sizes), block

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

    def signature_of_region(self, region: Rect) -> List[Tuple[int, float]]:
        """``S_R(·)`` of a region as (cell, |g∩region|) pairs in global
        order (Definition 4)."""
        pairs = self.grid.signature(region)
        pairs.sort(key=lambda item: self.rank(item[0]))
        return pairs
