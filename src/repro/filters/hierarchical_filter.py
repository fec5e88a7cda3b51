"""``HierarchicalFilter`` — SEAL's full method (Section 5.2).

Instead of one fixed-granularity grid for every token, each token gets
its own HSS-selected hierarchical partition ``G_t`` of at most ``mt``
cells: small-region tokens get fine cells where their objects live,
large-region tokens get coarse cells that avoid useless signature
elements.  The filtering algorithm is ``Hybrid-Sig-Filter+`` run
per-token against that token's grids (Example 5 / Figure 10): ``probes``
walks ``G_t`` of each prefix token for the cells the query region meets.
A ``(token, cell)`` pair's code packs the token's id in the index's own
vocabulary and the cell's number in the grid tree
(:func:`~repro.grid.hierarchy.cell_code`):
``token_id · cells_per_tree + cell_code``.

This is the method labelled **SEAL** in the paper's method-comparison
experiments (Figures 16–17).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.errors import ConfigurationError
from repro.core.method import SearchMethod
from repro.core.objects import Query, SpatioTextualObject
from repro.core.similarity import filter_threshold
from repro.filters.base import FULL_SCAN, Probes, candidates_from_probes
from repro.geometry import Rect
from repro.geometry.rect import mbr_of
from repro.grid.hierarchy import GridHierarchy, HierCell, cell_code
from repro.index.inverted import InvertedIndex
from repro.index.storage import HIER_CELL_KEY_BYTES, IndexSizeReport, measure_index
from repro.signatures.hierarchical import TokenGrids, select_token_grids_many
from repro.signatures.prefix import prefix_elements
from repro.signatures.textual import TextualScheme
from repro.text.weights import TokenWeighter


def _overlap(regions: np.ndarray, boxes: np.ndarray):
    """Closed-interval intersection test and intersection area of
    ``regions[..., 4]`` against ``boxes[..., 4]`` (broadcast together) —
    :meth:`HierarchicalFilter._region_cells` for arrays."""
    x_lo = np.maximum(regions[..., 0], boxes[..., 0])
    y_lo = np.maximum(regions[..., 1], boxes[..., 1])
    x_hi = np.minimum(regions[..., 2], boxes[..., 2])
    y_hi = np.minimum(regions[..., 3], boxes[..., 3])
    dx = x_hi - x_lo
    dy = y_hi - y_lo
    return (
        (x_lo <= x_hi) & (y_lo <= y_hi),
        np.where((dx > 0.0) & (dy > 0.0), dx * dy, 0.0),
    )


def _token_cell_postings(
    rows: np.ndarray, offsets: np.ndarray, token_of: np.ndarray, grids: Sequence[TokenGrids]
):
    """Which (occurrence, cell) pairs post, and their spatial bounds.

    ``rows`` holds the region of every (object, token) occurrence,
    grouped by token (``offsets``; ``token_of`` names each row's token).
    Per token, one (objects × cells) matrix of closed-interval overlaps
    and intersection areas, cells in the token's global order; a
    right-to-left cumulative sum along the cells gives every object's
    Lemma-3 bounds at once (cells a region misses weigh 0.0, so they
    leave the running sum untouched).  Tokens with a single cell — the
    whole Zipf tail — share one flat pass.

    Returns:
        ``(row, cell rank, spatial bound)`` of every posting, as arrays.
    """
    width = np.array([len(grid) for grid in grids], dtype=np.int64)
    first_box = np.array([grid.boxes[0] for grid in grids]).reshape(len(grids), 4)
    single = np.flatnonzero(width[token_of] == 1)
    hit, weight = _overlap(rows[single], first_box[token_of[single]])
    found = [single[hit]]
    cell = [np.zeros(len(found[0]), dtype=np.int64)]
    r_bounds = [weight[hit]]
    for token in np.flatnonzero(width > 1).tolist():
        lo, hi = offsets[token], offsets[token + 1]
        hit, weight = _overlap(rows[lo:hi, None, :], np.array(grids[token].boxes))
        suffix = np.cumsum(weight[:, ::-1], axis=1)[:, ::-1]
        which, where = np.nonzero(hit)
        found.append(lo + which)
        cell.append(where)
        r_bounds.append(suffix[which, where])
    return np.concatenate(found), np.concatenate(cell), np.concatenate(r_bounds)


class HierarchicalFilter(SearchMethod):
    """Hierarchical hybrid signature filtering (the **SEAL** method).

    Args:
        objects: The corpus.
        weighter: Corpus idf statistics (built if omitted).
        mt: Per-token grid budget (max hierarchical cells per token).
            With ``budget_scaling`` this becomes the *cap*.
        max_level: Finest grid-tree level HSS may refine to; level ``l``
            cells have side ``space_side / 2^l``.
        space: Grid-tree space; defaults to the corpus MBR.
        min_objects: Tokens appearing in at most this many objects keep
            the trivial root partition (their lists are short already).
        budget_scaling: Optional α; when set, token ``t`` gets budget
            ``clamp(round(α·|I(t)|), 4, mt)`` instead of a flat ``mt``.
            This realises Section 5.2's *global* index-size constraint:
            frequent tokens have long inverted lists and earn
            proportionally more grid elements (mirroring how the hash
            scheme's element count scales with |I(t)|), which is what
            lets hierarchical signatures match fixed-granularity
            filtering power at a smaller total budget.

    Raises:
        ConfigurationError: On an empty corpus, ``mt < 1``, or a
            vocabulary × cells-per-tree code space beyond int64.
    """

    name = "seal"

    def __init__(
        self,
        objects: Sequence[SpatioTextualObject],
        weighter: TokenWeighter | None = None,
        *,
        mt: int = 32,
        max_level: int = 8,
        space: Rect | None = None,
        min_objects: int = 4,
        budget_scaling: float | None = None,
    ) -> None:
        super().__init__(objects, weighter)
        if mt < 1:
            raise ConfigurationError(f"mt must be >= 1, got {mt}")
        if budget_scaling is not None and budget_scaling <= 0.0:
            raise ConfigurationError(
                f"budget_scaling must be positive, got {budget_scaling}"
            )
        if not len(self.corpus):
            raise ConfigurationError("HierarchicalFilter requires a non-empty corpus")
        self.mt = mt
        self.budget_scaling = budget_scaling
        self.textual = TextualScheme(self.weighter)
        if space is None:
            space = mbr_of([obj.region for obj in self.corpus])
            if space.width <= 0.0 or space.height <= 0.0:
                space = space.buffer(max(space.width, space.height, 1.0) * 0.5)
        self.hierarchy = GridHierarchy(space, max_level)

        # Pass 1: every object's textual signature with its Lemma-3
        # bounds, as flat arrays, then the same occurrences grouped by
        # token — the paper's I(t), each token's objects in corpus order.
        self.token_ids, sizes, tokens, t_bounds = self.textual.corpus_signatures(self.corpus)
        span = self.hierarchy.num_cells
        if len(self.token_ids) * span > np.iinfo(np.int64).max:
            raise ConfigurationError(
                f"{len(self.token_ids)} tokens × {span} cells per grid tree overflow "
                f"a 64-bit element code; lower max_level (now {max_level})"
            )
        regions = np.array(
            [obj.region.as_tuple() for obj in self.corpus], dtype=np.float64
        ).reshape(len(self.corpus), 4)
        owner = np.repeat(np.arange(len(self.corpus)), sizes)
        by_token = np.argsort(tokens, kind="stable")
        list_sizes = np.bincount(tokens, minlength=len(self.token_ids))
        offsets = np.concatenate([[0], np.cumsum(list_sizes)])
        rows = regions[owner[by_token]]

        # Pass 2: HSS-Greedy for all tokens, lock-step (one array kernel
        # per refinement round instead of one call per node and child).
        def token_budget(list_size: int) -> int:
            if budget_scaling is None:
                return mt
            return max(4, min(mt, round(budget_scaling * list_size)))

        grids = select_token_grids_many(
            rows,
            offsets,
            self.hierarchy,
            [token_budget(size) for size in list_sizes.tolist()],
            min_objects=min_objects,
        )
        self.token_grids: Dict[str, TokenGrids] = dict(zip(self.token_ids, grids))

        # Pass 3: the (token, cell) postings with dual bounds, then one
        # bulk load.  `cell` is each posting's rank in its token's grids.
        found, cell, r_bounds = _token_cell_postings(rows, offsets, tokens[by_token], grids)
        found = by_token[found]
        grid_cells = np.array([c for grid in grids for c in grid.cells], dtype=np.int64)
        first_cell = np.cumsum([0] + [len(grid) for grid in grids])
        token_of = tokens[found]
        level, row, col = grid_cells.reshape(-1, 3)[first_cell[token_of] + cell].T
        self.index = InvertedIndex.from_postings(
            token_of * span + cell_code(level, row, col), owner[found], r_bounds, t_bounds[found]
        )

    @staticmethod
    def _region_cells(grids: TokenGrids, region: Rect) -> List[Tuple[HierCell, float]]:
        """Cells of one token's partition intersecting ``region``, in the
        token's global order, weighted by intersection area.

        ``G_t`` holds at most ``mt`` cells, so a linear scan with inlined
        rectangle arithmetic beats any spatial structure here.  This is
        the probe path's scalar form; the build runs the same test and
        weights for all of a token's objects at once (:func:`_overlap`).
        """
        rx1, ry1, rx2, ry2 = region.x1, region.y1, region.x2, region.y2
        out: List[Tuple[HierCell, float]] = []
        for cell, (bx1, by1, bx2, by2) in zip(grids.cells, grids.boxes):
            if rx1 <= bx2 and bx1 <= rx2 and ry1 <= by2 and by1 <= ry2:
                dx = (bx2 if bx2 < rx2 else rx2) - (bx1 if bx1 > rx1 else rx1)
                dy = (by2 if by2 < ry2 else ry2) - (by1 if by1 > ry1 else ry1)
                out.append((cell, dx * dy if dx > 0.0 and dy > 0.0 else 0.0))
        return out

    # ------------------------------------------------------------------
    # Filter step
    # ------------------------------------------------------------------

    def probes(self, query: Query) -> Probes:
        tokens, c_t = self.textual.query_prefix(query)
        if c_t <= 0.0 or query.tau_r <= 0.0:
            return FULL_SCAN
        c_r = filter_threshold(query.tau_r, query.region.area)
        span = self.hierarchy.num_cells
        codes = []
        for token in tokens:
            grids = self.token_grids.get(token)
            if grids is None:
                # No object contains this token: nothing to probe, and no
                # answer can hinge on it (it contributes weight only to
                # the union, which the threshold already accounts for).
                continue
            base = self.token_ids[token] * span
            cells = prefix_elements(self._region_cells(grids, query.region), c_r)
            codes.extend(base + cell_code(*cell) for cell, _ in cells)
        return codes, c_r, c_t

    candidates = candidates_from_probes

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def index_size(self) -> IndexSizeReport:
        return measure_index(self.index, bounds_per_posting=2, tokens=list(self.token_ids),
                             span=self.hierarchy.num_cells, cell_bytes=HIER_CELL_KEY_BYTES)
