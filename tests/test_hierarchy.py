"""Tests for the virtual grid tree (GridHierarchy)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError
from repro.geometry import Rect
from repro.grid.hierarchy import GridHierarchy

from tests.strategies import rects

SPACE = Rect(0.0, 0.0, 100.0, 100.0)


class TestConstruction:
    def test_bad_level(self):
        with pytest.raises(ConfigurationError):
            GridHierarchy(SPACE, -1)

    def test_degenerate_space(self):
        with pytest.raises(ConfigurationError):
            GridHierarchy(Rect(0, 0, 0, 1), 2)

    def test_granularity(self):
        h = GridHierarchy(SPACE, 5)
        assert h.granularity(0) == 1
        assert h.granularity(3) == 8

    def test_level_out_of_range(self):
        h = GridHierarchy(SPACE, 2)
        with pytest.raises(ValueError):
            h.level_grid(3)


class TestTopology:
    @pytest.fixture()
    def h(self):
        return GridHierarchy(SPACE, 3)

    def test_root(self, h):
        assert h.cell_rect(h.ROOT) == SPACE
        assert h.parent(h.ROOT) is None

    def test_children_tile_parent(self, h):
        parent = (1, 0, 1)
        kids = h.children(parent)
        assert len(kids) == 4
        total = sum(h.cell_rect(k).area for k in kids)
        assert total == pytest.approx(h.cell_rect(parent).area)
        for kid in kids:
            assert h.cell_rect(parent).contains(h.cell_rect(kid))
            assert h.parent(kid) == parent

    def test_leaf_has_no_children(self, h):
        assert h.children((3, 0, 0)) == []
        assert h.is_leaf((3, 5, 5))
        assert not h.is_leaf((2, 0, 0))

    def test_cell_area(self, h):
        assert h.cell_area((0, 0, 0)) == SPACE.area
        assert h.cell_area((2, 1, 3)) == SPACE.area / 16


class TestRegionQueries:
    @pytest.fixture()
    def h(self):
        return GridHierarchy(SPACE, 3)

    def test_cells_overlapping_level(self, h):
        cells = h.cells_overlapping(Rect(10, 10, 40, 40), 1)
        assert cells == [(1, 0, 0)]
        cells2 = h.cells_overlapping(Rect(10, 10, 60, 60), 1)
        assert len(cells2) == 4

    def test_cell_weight(self, h):
        assert h.cell_weight((1, 0, 0), Rect(0, 0, 25, 50)) == pytest.approx(1250.0)

    def test_descend_parents_first(self, h):
        region = Rect(10, 10, 15, 15)
        seen = list(h.descend(region))
        assert seen[0] == h.ROOT
        positions = {cell: i for i, cell in enumerate(seen)}
        for cell in seen[1:]:
            assert positions[h.parent(cell)] < positions[cell]

    def test_descend_only_intersecting(self, h):
        region = Rect(1, 1, 2, 2)  # bottom-left corner
        for cell in h.descend(region):
            assert h.cell_rect(cell).intersects(region)


@settings(max_examples=40, deadline=None)
@given(rects(), st.integers(min_value=0, max_value=4))
def test_level_cells_cover_clipped_region(region, level):
    h = GridHierarchy(SPACE, 4)
    cells = h.cells_overlapping(region, level)
    covered = sum(h.cell_weight(c, region) for c in cells)
    assert covered == pytest.approx(region.intersection_area(SPACE))


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
