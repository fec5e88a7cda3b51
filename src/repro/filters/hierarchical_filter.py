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

from typing import List

import numpy as np

from repro.core.errors import ConfigurationError
from repro.core.method import SearchMethod
from repro.core.objects import Query
from repro.filters.base import FULL_SCAN, Probes, candidates_from_probes
from repro.geometry import Rect
from repro.geometry.rect import corpus_space
from repro.grid.hierarchy import GridHierarchy, cell_code
from repro.grid.uniform import region_block
from repro.index.inverted import InvertedIndex
from repro.index.storage import HIER_CELL_KEY_BYTES, IndexSizeReport, measure_index
from repro.signatures.hierarchical import select_frontiers
from repro.signatures.prefix import prefix_elements
from repro.signatures.query import compile_query
from repro.signatures.textual import TextualScheme


def _overlap(regions: np.ndarray, boxes: np.ndarray):
    """Closed-interval intersection test and intersection area of
    ``regions[..., 4]`` against ``boxes[..., 4]`` (broadcast together) —
    the probe loop of :meth:`HierarchicalFilter.probes` for arrays."""
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


def _frontier_postings(rows: np.ndarray, offsets: np.ndarray, token_of: np.ndarray,
                       first: np.ndarray, cells: np.ndarray, boxes: np.ndarray):
    """Order every frontier; find which (occurrence, cell) pairs post,
    and their spatial bounds.

    ``rows`` holds the region of every (object, token) occurrence,
    grouped by token (``offsets``; ``token_of`` names each row's token);
    ``first[t] .. first[t + 1]`` delimits token ``t``'s frontier in
    ``cells`` and ``boxes``.  Per token, one (objects × cells) matrix of
    closed-interval overlaps and intersection areas: its column counts
    give the global order (Section 5.2: level, regions touching the
    cell, row, column), and a right-to-left cumulative sum along the
    ordered cells every object's Lemma-3 bounds (cells a region misses
    weigh 0.0).  Single-cell tokens — the Zipf tail — share one flat pass.

    Returns:
        ``(order, found, position, spatial bound)``: the permutation of
        the frontier rows into global order, then per posting its row and
        its cell's position in the ordered frontier rows.
    """
    width = np.diff(first)
    order = np.arange(first[-1])
    single = np.flatnonzero(width[token_of] == 1)
    hit, weight = _overlap(rows[single], boxes[first[token_of[single]]])
    found = [single[hit]]
    position = [first[token_of[found[0]]]]
    r_bounds = [weight[hit]]
    for token in np.flatnonzero(width > 1).tolist():
        lo, hi = offsets[token], offsets[token + 1]
        start, stop = first[token], first[token + 1]
        hit, weight = _overlap(rows[lo:hi, None, :], boxes[start:stop])
        level, row, col = cells[start:stop].T
        rank = np.lexsort((col, row, np.count_nonzero(hit, axis=0), level))
        order[start:stop] = start + rank
        hit, weight = hit[:, rank], weight[:, rank]
        suffix = np.cumsum(weight[:, ::-1], axis=1)[:, ::-1]
        which, where = np.nonzero(hit)
        found.append(lo + which)
        position.append(start + where)
        r_bounds.append(suffix[which, where])
    return order, np.concatenate(found), np.concatenate(position), np.concatenate(r_bounds)


class HierarchicalFilter(SearchMethod):
    """Hierarchical hybrid signature filtering (the **SEAL** method).

    Args:
        objects: The corpus.
        weighter: Corpus idf statistics (built if omitted).
        mt: Per-token grid budget (max hierarchical cells per token).
            With ``budget_scaling`` this becomes the *cap*.
        max_level: Finest grid-tree level HSS may refine to; level ``l``
            cells have side ``space_side / 2^l``.
        space: Grid-tree space; defaults to
            :func:`~repro.geometry.rect.corpus_space` of the regions.
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
        ConfigurationError: On an empty corpus, a region with an infinite
            edge, ``mt < 1``, or a vocabulary × cells-per-tree code space
            beyond int64.
    """

    name = "seal"

    def _build(
        self,
        *,
        mt: int = 32,
        max_level: int = 8,
        space: Rect | None = None,
        min_objects: int = 4,
        budget_scaling: float | None = None,
    ):
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
        boxes = [obj.region for obj in self.corpus]
        regions = region_block(boxes)
        if space is None:
            space = corpus_space(boxes)
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

        budgets = [token_budget(size) for size in list_sizes.tolist()]
        widths, cells = select_frontiers(
            rows, offsets, self.hierarchy, budgets, min_objects=min_objects
        )
        first = np.concatenate([[0], np.cumsum(widths)])
        cell_boxes = self.hierarchy.cell_boxes(cells)
        codes = np.repeat(np.arange(len(widths)), widths) * span + cell_code(*cells.T)

        # Pass 3: one overlap pass per token orders its frontier and
        # finds its (token, cell) postings with their dual bounds; then
        # one bulk load.
        order, found, position, r_bounds = _frontier_postings(
            rows, offsets, tokens[by_token], first, cells, cell_boxes
        )
        codes = codes[order]
        found = by_token[found]
        self.index = InvertedIndex.from_postings(
            codes[position], owner[found], r_bounds, t_bounds[found]
        )
        # The frontiers as columns over token ids: ``G_t`` of token id
        # ``i`` is rows ``frontier_offsets[i] .. frontier_offsets[i + 1]``
        # of the box and element-code columns.  Plain ints and floats, so
        # the probe loop does Python arithmetic and a snapshot pickles
        # 9-byte floats whatever scalar type the coordinates arrived as.
        self.frontier_offsets = first.tolist()
        self.frontier_boxes = list(map(tuple, cell_boxes[order].tolist()))
        self.frontier_codes = codes.tolist()
        return regions, (self.token_ids, sizes, tokens)

    # ------------------------------------------------------------------
    # Filter step
    # ------------------------------------------------------------------

    def probes(self, query: Query) -> Probes:
        """Per prefix token, the cells of ``G_t`` the query region meets,
        weighted by intersection area and cut at the Lemma-2 prefix for
        ``c_R``.  ``G_t`` holds at most ``mt`` cells, so a linear scan
        with inlined rectangle arithmetic beats any spatial structure."""
        query = compile_query(query, self.weighter)
        if query.c_t <= 0.0 or query.tau_r <= 0.0:
            return FULL_SCAN
        rx1, ry1, rx2, ry2 = query.region.as_tuple()
        offsets, boxes, element = self.frontier_offsets, self.frontier_boxes, self.frontier_codes
        codes: List[int] = []
        for token in query.prefix_tokens():
            token_id = self.token_ids.get(token)
            if token_id is None:
                # No object contains this token: nothing to probe, and no
                # answer can hinge on it (it contributes weight only to
                # the union, which the threshold already accounts for).
                continue
            cells = []
            for at in range(offsets[token_id], offsets[token_id + 1]):
                bx1, by1, bx2, by2 = boxes[at]
                if rx1 <= bx2 and bx1 <= rx2 and ry1 <= by2 and by1 <= ry2:
                    dx = (bx2 if bx2 < rx2 else rx2) - (bx1 if bx1 > rx1 else rx1)
                    dy = (by2 if by2 < ry2 else ry2) - (by1 if by1 > ry1 else ry1)
                    cells.append((element[at], dx * dy if dx > 0.0 and dy > 0.0 else 0.0))
            codes.extend(code for code, _ in prefix_elements(cells, query.c_r))
        return codes, query.c_r, query.c_t

    candidates = candidates_from_probes

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def index_size(self) -> IndexSizeReport:
        return measure_index(self.index, bounds_per_posting=2, tokens=list(self.token_ids),
                             span=self.hierarchy.num_cells, cell_bytes=HIER_CELL_KEY_BYTES)
