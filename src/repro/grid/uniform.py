"""Uniform p × p grids over the object space (Section 4.1).

A :class:`UniformGrid` partitions the *entire space* (the MBR of all
object regions) into ``granularity × granularity`` equal cells satisfying
the paper's two properties: completeness (cells cover the space) and
disjointness (cells are pairwise disjoint).  Disjointness is realised with
half-open cells ``[x_lo, x_hi) × [y_lo, y_hi)`` (the last row/column is
closed), so a region whose edge lies exactly on a grid line belongs to one
side only.

Column ``k``'s left edge is ``space.x1 + k * (width / granularity)``
(rows likewise): :meth:`UniformGrid.cell_rect`, :meth:`~UniformGrid.cell_span`,
:meth:`~UniformGrid.signature` and :meth:`~UniformGrid.signatures` all
cut on that one edge, so a cell's own rectangle spans exactly that cell.

Cells are identified by the integer ``row * granularity + col``; the cell
id is what the inverted indexes key on.
"""

from __future__ import annotations

from operator import attrgetter
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.errors import ConfigurationError
from repro.geometry import Rect


def coordinate_block(regions: Sequence[Rect]) -> np.ndarray:
    """The regions' ``(x1, y1, x2, y2)`` as an ``(n, 4)`` float64 block,
    read edge by edge: no tuple per region for the cyclic collector.
    Infinite edges are kept."""
    block = np.empty((len(regions), 4))
    for k, edge in enumerate(("x1", "y1", "x2", "y2")):
        block[:, k] = np.fromiter(map(attrgetter(edge), regions), np.float64, len(regions))
    return block


def region_block(regions: Sequence[Rect]) -> np.ndarray:
    """:func:`coordinate_block` of regions a grid partitions.

    Raises:
        ConfigurationError: If a region has an infinite edge: no grid
            can partition it.
    """
    block = coordinate_block(regions)
    finite = np.isfinite(block).all(axis=1)
    if not finite.all():
        at = int(finite.argmin())
        raise ConfigurationError(
            f"region {at} ({regions[at]}) is not finite: a grid cannot partition it"
        )
    return block


class UniformGrid:
    """An equal-size grid partition of a space rectangle.

    Args:
        space: The rectangle to partition (the MBR of all object regions).
        granularity: Cells per side, ``p >= 1``; the paper sweeps powers of
            two (64 … 8192) but any positive count is supported.

    Raises:
        ConfigurationError: If ``granularity < 1`` or the space is
            degenerate (zero width or height), which would make cell
            areas — and hence all grid weights — zero.
    """

    __slots__ = ("space", "granularity", "_cell_w", "_cell_h")

    def __init__(self, space: Rect, granularity: int) -> None:
        if granularity < 1:
            raise ConfigurationError(f"granularity must be >= 1, got {granularity}")
        if space.width <= 0.0 or space.height <= 0.0:
            raise ConfigurationError(
                "grid space must have positive width and height; "
                "buffer a degenerate corpus MBR before building grids"
            )
        self.space = space
        self.granularity = granularity
        self._cell_w = space.width / granularity
        self._cell_h = space.height / granularity

    def __reduce__(self):
        # The cell sizes are derived; a grid pickles as its arguments.
        return (type(self), (self.space, self.granularity))

    # ------------------------------------------------------------------
    # Cell geometry
    # ------------------------------------------------------------------

    @property
    def num_cells(self) -> int:
        return self.granularity * self.granularity

    def cell_id(self, row: int, col: int) -> int:
        return row * self.granularity + col

    def cell_rect(self, cell: int) -> Rect:
        """The closed rectangle of cell ``cell`` (for area computations)."""
        g = self.granularity
        row, col = divmod(cell, g)
        if not (0 <= row < g and 0 <= col < g):
            raise ValueError(f"cell id {cell} out of range for granularity {g}")
        x1, y1 = self.space.x1, self.space.y1
        cw, ch = self._cell_w, self._cell_h
        return Rect(x1 + col * cw, y1 + row * ch, x1 + (col + 1) * cw, y1 + (row + 1) * ch)

    # ------------------------------------------------------------------
    # Region <-> cells
    # ------------------------------------------------------------------

    def cell_span(self, rect: Rect) -> Tuple[int, int, int, int] | None:
        """Inclusive ``(row_lo, row_hi, col_lo, col_hi)`` of cells whose
        half-open extent intersects ``rect`` (clipped to the space), or
        None when the rect lies entirely outside the space.

        Half-open semantics: a rect whose right edge coincides with a cell
        boundary does *not* reach the cell to the right of that boundary.
        """
        space = self.space
        if (
            rect.x2 < space.x1
            or rect.x1 > space.x2
            or rect.y2 < space.y1
            or rect.y1 > space.y2
        ):
            return None
        col_lo, col_hi = self._axis_span(rect.x1, rect.x2, space.x1, self._cell_w)
        row_lo, row_hi = self._axis_span(rect.y1, rect.y2, space.y1, self._cell_h)
        return (row_lo, row_hi, col_lo, col_hi)

    def _axis_span(self, lo: float, hi: float, origin: float, step: float) -> Tuple[int, int]:
        """The first and last cell ``[lo, hi]`` reaches along one axis
        (``hi >= origin``), clamped to the grid.

        The first is the cell whose half-open extent holds ``lo``.  The
        last is the same cell for a degenerate extent, else the last cell
        whose left edge lies below ``hi`` — an extent ending exactly on an
        edge does not reach the cell beyond it.  ``int(offset / step)``
        can round to a neighbouring cell, so each index is corrected by
        one step against the edge ``origin + k * step`` itself.
        """
        last = self.granularity - 1
        first = 0
        if lo > origin:
            first = int((lo - origin) / step)
            if first > last:
                first = last
            if origin + first * step > lo:
                first -= 1
            elif first < last and origin + (first + 1) * step <= lo:
                first += 1
        if hi == lo:
            return first, first
        end = int((hi - origin) / step)
        if end > last:
            end = last
        if origin + end * step >= hi:
            if end > 0:
                end -= 1
        elif end < last and origin + (end + 1) * step < hi:
            end += 1
        return first, end

    def _axis_spans(self, lo, hi, origin: float, step: float) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`_axis_span` of every ``(lo[i], hi[i])`` at once, with the
        same float operations and corrections (finite input; a row with
        ``hi < origin`` gets indexes no caller reads)."""
        last = self.granularity - 1
        after = lo > origin
        first = np.clip((lo - origin) / step, 0, last).astype(np.int64)
        down = after & (origin + first * step > lo)
        up = after & ~down & (first < last) & (origin + (first + 1) * step <= lo)
        first = first + up - down
        end = np.clip((hi - origin) / step, 0, last).astype(np.int64)
        down = (origin + end * step >= hi) & (end > 0)
        up = (origin + end * step < hi) & (end < last) & (origin + (end + 1) * step < hi)
        end = end + up - down
        return first, np.where(hi == lo, first, end)

    def signatures(self, block: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`signature` of every row of a :func:`region_block`, bit
        for bit, as flat columns ``(sizes, cells, weights)``: region after
        region, each in :meth:`signature`'s order.  A corpus build's form;
        one query region costs less through the loop."""
        space, g = self.space, self.granularity
        x1, y1, x2, y2 = block.T
        col_lo, col_hi = self._axis_spans(x1, x2, space.x1, self._cell_w)
        row_lo, row_hi = self._axis_spans(y1, y2, space.y1, self._cell_h)
        cols = col_hi - col_lo + 1
        outside = (x2 < space.x1) | (x1 > space.x2) | (y2 < space.y1) | (y1 > space.y2)
        sizes = np.where(outside, 0, (row_hi - row_lo + 1) * cols)
        # Each region's rows × columns, row-major, by index arithmetic.
        owner = np.repeat(np.arange(len(sizes)), sizes)
        within = np.arange(len(owner)) - (np.cumsum(sizes) - sizes)[owner]
        col = col_lo[owner] + within % cols[owner]
        row = row_lo[owner] + within // cols[owner]
        dx = _overlap(x1[owner], x2[owner], space.x1, self._cell_w, col)
        dy = _overlap(y1[owner], y2[owner], space.y1, self._cell_h, row)
        return sizes, row * g + col, np.where(dx > 0.0, dx, 0.0) * np.where(dy < 0.0, 0.0, dy)

    def signature(self, rect: Rect) -> List[Tuple[int, float]]:
        """Grid-based signature of ``rect`` (Definition 4) with weights.

        Returns ``[(cell, |g ∩ rect|), ...]`` — the intersecting cells with
        the area weights ``w(g|·)`` of Equation (1).  Degenerate regions
        yield their single owning cell with weight 0.
        """
        span = self.cell_span(rect)
        if span is None:
            return []
        row_lo, row_hi, col_lo, col_hi = span
        x1, y1 = self.space.x1, self.space.y1
        cw, ch = self._cell_w, self._cell_h
        g = self.granularity
        # A cell's overlap is its column's width times its row's height.
        widths = []
        for col in range(col_lo, col_hi + 1):
            dx = min(rect.x2, x1 + (col + 1) * cw) - max(rect.x1, x1 + col * cw)
            widths.append((col, dx if dx > 0.0 else 0.0))
        out: List[Tuple[int, float]] = []
        for row in range(row_lo, row_hi + 1):
            dy = min(rect.y2, y1 + (row + 1) * ch) - max(rect.y1, y1 + row * ch)
            if dy < 0.0:
                dy = 0.0
            base = row * g
            for col, dx in widths:
                out.append((base + col, dx * dy))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UniformGrid({self.granularity}x{self.granularity} over {self.space.as_tuple()})"


def _overlap(lo, hi, origin: float, step: float, k) -> np.ndarray:
    """``min(hi, origin + (k + 1)·step) − max(lo, origin + k·step)``
    elementwise, each ``min``/``max`` picking its first argument on a tie
    as Python's do (so ``-0.0`` and ``0.0`` come out as in the loop)."""
    top = origin + (k + 1) * step
    bottom = origin + k * step
    return np.where(top < hi, top, hi) - np.where(bottom > lo, bottom, lo)
