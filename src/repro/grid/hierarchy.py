"""The level-indexed grid tree (Figure 7 / Figure 10).

Level ``l`` partitions the space into ``2^l × 2^l`` cells; the four
children of cell ``(l, row, col)`` are the level-``l+1`` cells covering
the same extent.  :class:`GridHierarchy` is a pure coordinate system — it
materialises no nodes, so both the granularity-selection cost model
(Section 4.3) and HSS-Greedy (Section 5.2) can walk arbitrarily deep
without paying for the full 4^l fan-out.

A cell is ``HierCell = (level, row, col)``, ordered first by level so the
paper's hierarchical global order ("ascending order of their levels")
falls out of tuple comparison; :func:`cell_code` numbers a tree's cells
breadth first, each level row-major — a signature index's element code.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.errors import ConfigurationError
from repro.geometry import Rect
from repro.grid.uniform import UniformGrid

#: A hierarchical grid cell: (level, row, col).
HierCell = Tuple[int, int, int]


def cell_code(level, row, col):
    """The cell's number in its tree: the cells of the levels above it,
    then its row-major position in its own level.  Works on ints and on
    integer arrays alike."""
    return ((1 << (2 * level)) - 1) // 3 + (row << level) + col


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

    @property
    def num_cells(self) -> int:
        """Cells of every level of the tree (the span of :func:`cell_code`)."""
        return ((1 << (2 * (self.max_level + 1))) - 1) // 3

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GridHierarchy(max_level={self.max_level}, space={self.space.as_tuple()})"
