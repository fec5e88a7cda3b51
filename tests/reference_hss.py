"""Scalar reference for SEAL index construction (test-only oracle).

This is the per-token, per-node HSS-Greedy and the per-posting index
assembly exactly as they stood before construction became array
kernels: one ``_ihat`` call per (node, child), one ``add`` per posting
into the staged lists of ``tests/reference_postings.py``, sorted at
freeze.  The differential tests build both ways and require identical
frontiers (set and order) and an identical index, posting for posting.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.core.errors import ConfigurationError
from repro.core.objects import SpatioTextualObject
from repro.geometry import Rect
from repro.filters.hybrid_filter import bucket
from repro.grid.hierarchy import GridHierarchy, HierCell, cell_code

from tests.reference_postings import ReferenceIndex
from tests.reference_signatures import suffix_bounds, token_signature

_Box = Tuple[float, float, float, float]


class Frontier(NamedTuple):
    """One token's ``G_t`` in the hierarchical global order: its cells
    and, aligned with them, their boxes."""

    cells: Tuple[HierCell, ...]
    boxes: Tuple[_Box, ...]


def _as_array(regions: Sequence[Rect] | Sequence[_Box]) -> np.ndarray:
    rows = [r.as_tuple() if isinstance(r, Rect) else tuple(r) for r in regions]
    return np.asarray(rows, dtype=np.float64).reshape(len(rows), 4)


def _ihat(box: _Box, regions: np.ndarray) -> float:
    """``Î(g) = Σ_o |g∩o.R| / |g|`` over regions intersecting the cell."""
    bx1, by1, bx2, by2 = box
    area = (bx2 - bx1) * (by2 - by1)
    if area <= 0.0 or len(regions) == 0:
        return 0.0
    dx = np.minimum(regions[:, 2], bx2) - np.maximum(regions[:, 0], bx1)
    dy = np.minimum(regions[:, 3], by2) - np.maximum(regions[:, 1], by1)
    np.clip(dx, 0.0, None, out=dx)
    np.clip(dy, 0.0, None, out=dy)
    return float(np.dot(dx, dy)) / area


def _quarters(box: _Box) -> Tuple[_Box, _Box, _Box, _Box]:
    x1, y1, x2, y2 = box
    mx = (x1 + x2) / 2.0
    my = (y1 + y2) / 2.0
    return (
        (x1, y1, mx, my),
        (mx, y1, x2, my),
        (x1, my, mx, y2),
        (mx, my, x2, y2),
    )


def _error(box: _Box, ihat: float, regions: np.ndarray, levels_below: int) -> float:
    total = 0.0
    for child in _quarters(box):
        diff = ihat - _ihat(child, regions)
        total += diff * diff
    if levels_below > 1:
        total *= float(4 ** (levels_below - 1))
    return total


def _children(cell: HierCell) -> List[HierCell]:
    """The four next-level cells tiling ``cell``, row-major."""
    level, row, col = cell
    return [(level + 1, 2 * row + dy, 2 * col + dx) for dy in (0, 1) for dx in (0, 1)]


def _filter_regions(box: _Box, regions: np.ndarray) -> np.ndarray:
    bx1, by1, bx2, by2 = box
    mask = (
        (regions[:, 0] <= bx2)
        & (bx1 <= regions[:, 2])
        & (regions[:, 1] <= by2)
        & (by1 <= regions[:, 3])
    )
    return regions[mask]


def hss_greedy(
    regions: Sequence[Rect] | Sequence[_Box], hierarchy: GridHierarchy, mt: int
) -> List[HierCell]:
    """Algorithm 2, one token, one node and one child at a time."""
    if mt < 1:
        raise ConfigurationError(f"mt must be >= 1, got {mt}")
    boxes = _as_array(regions)
    root_cell = hierarchy.ROOT
    root_box = hierarchy.cell_rect(root_cell).as_tuple()
    max_level = hierarchy.max_level

    selected: List[HierCell] = []
    tiebreak = itertools.count()
    root_ihat = _ihat(root_box, boxes)
    queue: List[Tuple[float, int, HierCell, _Box, np.ndarray]] = [
        (
            -_error(root_box, root_ihat, boxes, max_level),
            next(tiebreak),
            root_cell,
            root_box,
            boxes,
        )
    ]
    while queue:
        _, _, cell, box, cell_regions = heapq.heappop(queue)
        if cell[0] >= max_level:
            selected.append(cell)
            continue
        children: List[Tuple[HierCell, _Box, np.ndarray]] = []
        for child_cell, child_box in zip(_children(cell), _quarters(box)):
            sub = _filter_regions(child_box, cell_regions)
            if len(sub):
                children.append((child_cell, child_box, sub))
        if not children or len(selected) + len(queue) + len(children) > mt:
            selected.append(cell)
            continue
        for child_cell, child_box, sub in children:
            child_ihat = _ihat(child_box, sub)
            heapq.heappush(
                queue,
                (
                    -_error(child_box, child_ihat, sub, max_level - child_cell[0]),
                    next(tiebreak),
                    child_cell,
                    child_box,
                    sub,
                ),
            )
    return selected


def select_token_grids(
    regions: Sequence[Rect], hierarchy: GridHierarchy, mt: int, *, min_objects: int = 0
) -> Frontier:
    """Scalar HSS-Greedy plus the hierarchical global order."""
    if len(regions) <= min_objects or mt == 1:
        cells: List[HierCell] = [hierarchy.ROOT]
    else:
        cells = hss_greedy(regions, hierarchy, mt)
    boxes = {cell: hierarchy.cell_rect(cell).as_tuple() for cell in cells}
    arr = _as_array(regions)

    def count(cell: HierCell) -> int:
        bx1, by1, bx2, by2 = boxes[cell]
        mask = (
            (arr[:, 0] <= bx2)
            & (bx1 <= arr[:, 2])
            & (arr[:, 1] <= by2)
            & (by1 <= arr[:, 3])
        )
        return int(mask.sum())

    counts = {cell: count(cell) for cell in cells}
    ordered = sorted(cells, key=lambda cell: (cell[0], counts[cell], cell))
    return Frontier(tuple(ordered), tuple(boxes[c] for c in ordered))


def token_grids(
    corpus: Sequence[SpatioTextualObject],
    hierarchy: GridHierarchy,
    *,
    mt: int,
    min_objects: int,
    budget_scaling: float | None,
) -> Dict[str, Frontier]:
    """Passes 1-2 of ``HierarchicalFilter`` as they were: one greedy per token."""
    per_token_regions: Dict[str, List[Rect]] = {}
    for obj in corpus:
        for token in obj.tokens:
            per_token_regions.setdefault(token, []).append(obj.region)

    def token_budget(list_size: int) -> int:
        if budget_scaling is None:
            return mt
        return max(4, min(mt, round(budget_scaling * list_size)))

    return {
        token: select_token_grids(
            regions, hierarchy, token_budget(len(regions)), min_objects=min_objects
        )
        for token, regions in per_token_regions.items()
    }


def region_cells(grids: Frontier, region: Rect) -> List[Tuple[HierCell, float]]:
    rx1, ry1, rx2, ry2 = region.x1, region.y1, region.x2, region.y2
    out: List[Tuple[HierCell, float]] = []
    for cell, (bx1, by1, bx2, by2) in zip(grids.cells, grids.boxes):
        if rx1 <= bx2 and bx1 <= rx2 and ry1 <= by2 and by1 <= ry2:
            dx = (bx2 if bx2 < rx2 else rx2) - (bx1 if bx1 > rx1 else rx1)
            dy = (by2 if by2 < ry2 else ry2) - (by1 if by1 > ry1 else ry1)
            out.append((cell, dx * dy if dx > 0.0 and dy > 0.0 else 0.0))
    return out


def hierarchical_index(
    corpus: Sequence[SpatioTextualObject], method, grids: Dict[str, Frontier]
) -> ReferenceIndex:
    """Pass 3 of ``HierarchicalFilter`` as it was: one ``add`` per posting,
    keyed by the pair's code ``token_id · cells_per_tree + cell_code``."""
    index = ReferenceIndex(dual=True)
    span = method.hierarchy.num_cells
    for obj in corpus:
        token_sig = token_signature(method.weighter, obj.tokens)
        token_bounds = suffix_bounds([w for _, w in token_sig])
        for (token, _), t_bound in zip(token_sig, token_bounds):
            cells = region_cells(grids[token], obj.region)
            cell_bounds = suffix_bounds([w for _, w in cells])
            for (cell, _), r_bound in zip(cells, cell_bounds):
                code = method.token_ids[token] * span + cell_code(*cell)
                index.add(code, obj.oid, r_bound, t_bound)
    return index.freeze()


def hybrid_index(corpus: Sequence[SpatioTextualObject], method) -> ReferenceIndex:
    """``HybridFilter``'s triple loop as it was, keyed by the pair's code
    ``token_id · num_cells + cell``, or its bucket."""
    index = ReferenceIndex(dual=True)
    span = method.spatial.grid.num_cells
    for obj in corpus:
        token_sig = token_signature(method.weighter, obj.tokens)
        token_bounds = suffix_bounds([w for _, w in token_sig])
        cell_sig = method.spatial.signature_of_region(obj.region)
        cell_bounds = suffix_bounds([w for _, w in cell_sig])
        for (token, _), t_bound in zip(token_sig, token_bounds):
            for (cell, _), r_bound in zip(cell_sig, cell_bounds):
                code = method.token_ids[token] * span + cell
                if method.num_buckets is not None:
                    code = int(bucket(np.array([code]), method.num_buckets)[0])
                index.add(code, obj.oid, r_bound, t_bound)
    return index.freeze()
