"""Tests for the virtual grid tree (GridHierarchy)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import ConfigurationError
from repro.geometry import Rect
from repro.grid.hierarchy import GridHierarchy

SPACE = Rect(0.0, 0.0, 100.0, 100.0)


class TestConstruction:
    def test_bad_level(self):
        with pytest.raises(ConfigurationError):
            GridHierarchy(SPACE, -1)

    def test_degenerate_space(self):
        with pytest.raises(ConfigurationError):
            GridHierarchy(Rect(0, 0, 0, 1), 2)

    def test_level_out_of_range(self):
        h = GridHierarchy(SPACE, 2)
        with pytest.raises(ValueError):
            h.level_grid(3)


class TestTopology:
    def test_root(self):
        h = GridHierarchy(SPACE, 3)
        assert h.cell_rect(h.ROOT) == SPACE
        assert h.num_cells == 1 + 4 + 16 + 64


class TestCellBoxes:
    def test_bit_identical_to_cell_rect(self):
        # A space whose cell sides are not exactly representable.
        h = GridHierarchy(Rect(-3.3, 0.7, 96.4, 101.9), 6)
        cells = [(0, 0, 0), (1, 1, 0), (3, 7, 2), (6, 63, 63), (6, 0, 41), (5, 17, 30)]
        boxes = h.cell_boxes(np.array(cells))
        assert boxes.tolist() == [list(h.cell_rect(cell).as_tuple()) for cell in cells]

    def test_empty(self):
        h = GridHierarchy(SPACE, 3)
        assert h.cell_boxes(np.empty((0, 3), dtype=np.int64)).shape == (0, 4)

    @pytest.mark.parametrize("cell", [(4, 0, 0), (-1, 0, 0), (2, 4, 0), (2, 0, -1)])
    def test_out_of_range(self, cell):
        h = GridHierarchy(SPACE, 3)
        with pytest.raises(ValueError):
            h.cell_boxes(np.array([cell]))
