"""The level-indexed grid tree (Figure 7 / Figure 10).

Level ``l`` partitions the space into ``2^l × 2^l`` cells; the four
children of cell ``(l, row, col)`` are the level-``l+1`` cells covering
the same extent.  :class:`GridHierarchy` is a pure coordinate system — it
materialises no nodes, so both the granularity-selection cost model
(Section 4.3) and HSS-Greedy (Section 5.2) can walk arbitrarily deep
without paying for the full 4^l fan-out.

Hierarchical cells are identified by ``HierCell = (level, row, col)``
tuples, ordered first by level so that the paper's hierarchical global
order ("ascending order of their levels") falls out of tuple comparison.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

from repro.core.errors import ConfigurationError
from repro.geometry import Rect
from repro.grid.uniform import UniformGrid

#: A hierarchical grid cell: (level, row, col).
HierCell = Tuple[int, int, int]


class GridHierarchy:
    """A virtual quadtree of uniform grids over a space rectangle.

    Args:
        space: The rectangle all levels partition.
        max_level: Deepest (finest) level available; level ``max_level``
            has ``2^max_level`` cells per side.

    Raises:
        ConfigurationError: On a negative ``max_level`` or degenerate space.
    """

    __slots__ = ("space", "max_level", "_levels")

    ROOT: HierCell = (0, 0, 0)

    def __init__(self, space: Rect, max_level: int) -> None:
        if max_level < 0:
            raise ConfigurationError(f"max_level must be >= 0, got {max_level}")
        if space.width <= 0.0 or space.height <= 0.0:
            raise ConfigurationError("hierarchy space must have positive width and height")
        self.space = space
        self.max_level = max_level
        # Lazily-built UniformGrid per level; level l is only instantiated
        # when something actually touches it.
        self._levels: dict[int, UniformGrid] = {}

    def level_grid(self, level: int) -> UniformGrid:
        """The :class:`UniformGrid` realising level ``level``."""
        if not (0 <= level <= self.max_level):
            raise ValueError(f"level {level} outside [0, {self.max_level}]")
        grid = self._levels.get(level)
        if grid is None:
            grid = UniformGrid(self.space, 1 << level)
            self._levels[level] = grid
        return grid

    def granularity(self, level: int) -> int:
        return 1 << level

    # ------------------------------------------------------------------
    # Cell geometry
    # ------------------------------------------------------------------

    def cell_rect(self, cell: HierCell) -> Rect:
        level, row, col = cell
        grid = self.level_grid(level)
        return grid.cell_rect(grid.cell_id(row, col))

    def cell_boxes(self, cells: np.ndarray) -> np.ndarray:
        """:meth:`cell_rect` for many cells at once.

        Args:
            cells: ``(m, 3)`` integer array of ``(level, row, col)``.

        Returns:
            ``(m, 4)`` float array ``[x1, y1, x2, y2]``, bit-identical to
            ``cell_rect(cell).as_tuple()`` row by row (same operations in
            the same order).
        """
        level, row, col = cells[:, 0], cells[:, 1], cells[:, 2]
        if len(cells) and not (0 <= level.min() and level.max() <= self.max_level):
            raise ValueError(f"level outside [0, {self.max_level}]")
        side = np.left_shift(1, level)
        if np.any((row < 0) | (row >= side) | (col < 0) | (col >= side)):
            raise ValueError("cell position out of range for its level")
        cell_w = self.space.width / side
        cell_h = self.space.height / side
        x1 = self.space.x1 + col * cell_w
        y1 = self.space.y1 + row * cell_h
        return np.stack([x1, y1, x1 + cell_w, y1 + cell_h], axis=1)

    def cell_area(self, cell: HierCell) -> float:
        level = cell[0]
        side = 1 << level
        return (self.space.width / side) * (self.space.height / side)

    def children(self, cell: HierCell) -> List[HierCell]:
        """The four level+1 cells tiling ``cell`` (empty at max_level)."""
        level, row, col = cell
        if level >= self.max_level:
            return []
        r2, c2 = row * 2, col * 2
        return [
            (level + 1, r2, c2),
            (level + 1, r2, c2 + 1),
            (level + 1, r2 + 1, c2),
            (level + 1, r2 + 1, c2 + 1),
        ]

    def parent(self, cell: HierCell) -> HierCell | None:
        level, row, col = cell
        if level == 0:
            return None
        return (level - 1, row // 2, col // 2)

    def is_leaf(self, cell: HierCell) -> bool:
        return cell[0] >= self.max_level

    # ------------------------------------------------------------------
    # Region <-> cells
    # ------------------------------------------------------------------

    def cells_overlapping(self, rect: Rect, level: int) -> List[HierCell]:
        """Level-``level`` cells whose half-open extent intersects ``rect``."""
        grid = self.level_grid(level)
        span = grid.cell_span(rect)
        if span is None:
            return []
        row_lo, row_hi, col_lo, col_hi = span
        return [
            (level, row, col)
            for row in range(row_lo, row_hi + 1)
            for col in range(col_lo, col_hi + 1)
        ]

    def cell_weight(self, cell: HierCell, rect: Rect) -> float:
        """``|g ∩ rect|`` for a hierarchical cell — Equation (1) weights."""
        return self.cell_rect(cell).intersection_area(rect)

    def descend(self, rect: Rect) -> Iterator[HierCell]:
        """Depth-first walk of all cells (any level) intersecting ``rect``.

        Yields parents before children, which is the traversal order
        HSS-Greedy's grid-tree construction wants.
        """
        stack: List[HierCell] = [self.ROOT]
        while stack:
            cell = stack.pop()
            if not self.cell_rect(cell).intersects(rect):
                continue
            yield cell
            stack.extend(reversed(self.children(cell)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GridHierarchy(max_level={self.max_level}, space={self.space.as_tuple()})"
