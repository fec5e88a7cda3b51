"""HSS-Greedy on one token's regions, and SEAL's frontiers read back, for
the HSS tests.

:mod:`repro.signatures.hierarchical` runs Algorithm 2 for many tokens at
once (``hss_greedy_many``, ``select_frontiers``), and
:class:`~repro.filters.HierarchicalFilter` keeps the ordered frontiers as
flat columns over its token ids.  These helpers hand the greedy a single
list, which is the shape most tests state a case in, and turn the
columns back into one :class:`~tests.reference_hss.Frontier` per token,
the shape the scalar reference produces.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro import make_corpus
from repro.filters import HierarchicalFilter
from repro.geometry import Rect
from repro.grid.hierarchy import GridHierarchy, HierCell, cell_code
from repro.signatures.hierarchical import hss_greedy_many

from tests.reference_hss import Frontier


def as_rows(regions: Sequence[Rect] | Sequence[tuple]) -> np.ndarray:
    """``(n, 4)`` float rows ``[x1, y1, x2, y2]`` of rects or bare tuples."""
    rows = [r.as_tuple() if isinstance(r, Rect) else tuple(r) for r in regions]
    return np.asarray(rows, dtype=np.float64).reshape(len(rows), 4)


def hss_greedy(regions, hierarchy: GridHierarchy, mt: int) -> List[HierCell]:
    """Algorithm 2 for a single token: ≤ ``mt`` hierarchical grids of ``regions``."""
    rows = as_rows(regions)
    return hss_greedy_many(rows, [0, len(rows)], hierarchy, [mt])[0]


def cell_of(number: int) -> HierCell:
    """The inverse of :func:`~repro.grid.hierarchy.cell_code`."""
    level = 0
    while cell_code(level + 1, 0, 0) <= number:
        level += 1
    position = number - cell_code(level, 0, 0)
    return level, position >> level, position & ((1 << level) - 1)


def frontiers(method: HierarchicalFilter) -> Dict[str, Frontier]:
    """Every token's ``G_t``, in global order, from the filter's columns."""
    span = method.hierarchy.num_cells
    offsets = method.frontier_offsets
    out: Dict[str, Frontier] = {}
    for token, token_id in method.token_ids.items():
        lo, hi = offsets[token_id], offsets[token_id + 1]
        numbers = [code - token_id * span for code in method.frontier_codes[lo:hi]]
        assert all(0 <= number < span for number in numbers), token
        out[token] = Frontier(
            tuple(map(cell_of, numbers)), tuple(method.frontier_boxes[lo:hi])
        )
    return out


def select_token_grids(
    regions: Sequence[Rect], hierarchy: GridHierarchy, mt: int, *, min_objects: int = 0
) -> Frontier:
    """One token's frontier over ``regions`` (at least one), as a
    :class:`HierarchicalFilter` on ``hierarchy`` orders and stores it."""
    method = HierarchicalFilter(
        make_corpus([(region, {"t"}) for region in regions]),
        mt=mt,
        max_level=hierarchy.max_level,
        space=hierarchy.space,
        min_objects=min_objects,
    )
    return frontiers(method)["t"]
