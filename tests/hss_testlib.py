"""HSS-Greedy on one token's regions, for the HSS tests.

:mod:`repro.signatures.hierarchical` runs Algorithm 2 for many tokens at
once (``hss_greedy_many``, ``select_token_grids_many``); these wrappers
hand it a single list, which is the shape most tests state a case in.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.geometry import Rect
from repro.grid.hierarchy import GridHierarchy, HierCell
from repro.signatures.hierarchical import TokenGrids, hss_greedy_many, select_token_grids_many


def as_rows(regions: Sequence[Rect] | Sequence[tuple]) -> np.ndarray:
    """``(n, 4)`` float rows ``[x1, y1, x2, y2]`` of rects or bare tuples."""
    rows = [r.as_tuple() if isinstance(r, Rect) else tuple(r) for r in regions]
    return np.asarray(rows, dtype=np.float64).reshape(len(rows), 4)


def hss_greedy(regions, hierarchy: GridHierarchy, mt: int) -> List[HierCell]:
    """Algorithm 2 for a single token: ≤ ``mt`` hierarchical grids of ``regions``."""
    rows = as_rows(regions)
    return hss_greedy_many(rows, [0, len(rows)], hierarchy, [mt])[0]


def select_token_grids(
    regions, hierarchy: GridHierarchy, mt: int, *, min_objects: int = 0
) -> TokenGrids:
    """``select_token_grids_many`` for a single token's regions."""
    rows = as_rows(regions)
    return select_token_grids_many(
        rows, [0, len(rows)], hierarchy, [mt], min_objects=min_objects
    )[0]
