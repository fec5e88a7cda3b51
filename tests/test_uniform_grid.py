"""Tests for the uniform grid: completeness, disjointness, signatures."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError
from repro.geometry import Rect
from repro.grid.uniform import UniformGrid

from tests.strategies import rects

SPACE = Rect(0.0, 0.0, 100.0, 100.0)


class TestConstruction:
    def test_bad_granularity(self):
        with pytest.raises(ConfigurationError):
            UniformGrid(SPACE, 0)

    def test_degenerate_space_rejected(self):
        with pytest.raises(ConfigurationError):
            UniformGrid(Rect(0, 0, 0, 10), 4)

    def test_num_cells(self):
        assert UniformGrid(SPACE, 4).num_cells == 16


class TestCellGeometry:
    @pytest.fixture()
    def grid(self):
        return UniformGrid(SPACE, 4)

    def test_cell_rect(self, grid):
        assert grid.cell_rect(0) == Rect(0, 0, 25, 25)
        assert grid.cell_rect(5) == Rect(25, 25, 50, 50)
        assert grid.cell_rect(15) == Rect(75, 75, 100, 100)

    def test_cell_rect_out_of_range(self, grid):
        with pytest.raises(ValueError):
            grid.cell_rect(16)

    def test_completeness_and_disjointness(self, grid):
        """The paper's two grid properties (Section 4.1)."""
        total = sum(grid.cell_rect(c).area for c in range(grid.num_cells))
        assert total == pytest.approx(SPACE.area)
        cells = [grid.cell_rect(c) for c in range(grid.num_cells)]
        for i in range(len(cells)):
            for j in range(i + 1, len(cells)):
                assert cells[i].intersection_area(cells[j]) == 0.0

    @pytest.mark.parametrize("granularity", [1, 3, 7, 16])
    def test_cell_centre_lies_in_its_own_cell(self, granularity):
        """Point location through ``signature`` agrees with
        ``cell_rect``, also on a space whose edges are not round."""
        grid = UniformGrid(Rect(-3.7, 1.1, 11.3, 9.9), granularity)
        for cell in range(grid.num_cells):
            box = grid.cell_rect(cell)
            x, y = (box.x1 + box.x2) / 2, (box.y1 + box.y2) / 2
            assert [c for c, _ in grid.signature(Rect(x, y, x, y))] == [cell]


class TestCellSpan:
    @pytest.fixture()
    def grid(self):
        return UniformGrid(SPACE, 4)

    def test_interior_rect(self, grid):
        assert grid.cell_span(Rect(10, 10, 40, 40)) == (0, 1, 0, 1)

    def test_rect_on_boundary_half_open(self, grid):
        # Right edge exactly on the 25-boundary: does NOT reach column 1.
        assert grid.cell_span(Rect(10, 10, 25, 20)) == (0, 0, 0, 0)

    def test_degenerate_point_on_boundary(self, grid):
        # A point exactly on a grid line belongs to the upper cell
        # (half-open ownership).
        assert grid.cell_span(Rect(25, 25, 25, 25)) == (1, 1, 1, 1)

    def test_rect_outside_space(self, grid):
        assert grid.cell_span(Rect(200, 200, 300, 300)) is None

    def test_rect_covering_space(self, grid):
        assert grid.cell_span(Rect(-10, -10, 200, 200)) == (0, 3, 0, 3)

    def test_signature_cell_count(self, grid):
        assert len(grid.signature(Rect(10, 10, 60, 60))) == 9


class TestSignature:
    @pytest.fixture()
    def grid(self):
        return UniformGrid(SPACE, 4)

    def test_weights_sum_to_region_area(self, grid):
        region = Rect(10, 10, 60, 40)
        sig = grid.signature(region)
        assert sum(w for _, w in sig) == pytest.approx(region.area)

    def test_weights_are_intersection_areas(self, grid):
        region = Rect(10, 10, 60, 40)
        for cell, weight in grid.signature(region):
            assert weight == pytest.approx(grid.cell_rect(cell).intersection_area(region))

    def test_degenerate_region_single_cell_zero_weight(self, grid):
        sig = grid.signature(Rect(30, 30, 30, 30))
        assert len(sig) == 1
        assert sig[0] == (5, 0.0)

    def test_region_outside_space_empty(self, grid):
        assert grid.signature(Rect(500, 500, 600, 600)) == []

    def test_region_partially_outside_clipped(self, grid):
        sig = grid.signature(Rect(90, 90, 150, 150))
        assert [c for c, _ in sig] == [15]
        assert sig[0][1] == pytest.approx(100.0)


# ----------------------------------------------------------------------
# Property tests
# ----------------------------------------------------------------------


@st.composite
def spaces(draw) -> Rect:
    """A space anywhere in ±1e4 with sides from 1e-3 to 1e4: cell edges
    that are rarely exact in binary floating point."""
    coordinate = st.floats(min_value=-1e4, max_value=1e4)
    side = st.floats(min_value=1e-3, max_value=1e4)
    x1, y1 = draw(coordinate), draw(coordinate)
    return Rect(x1, y1, x1 + draw(side), y1 + draw(side))


def _cells_not_spanning_themselves(grid: UniformGrid) -> list:
    g = grid.granularity
    return [
        cell for cell in range(grid.num_cells)
        if grid.cell_span(grid.cell_rect(cell)) != (cell // g, cell // g, cell % g, cell % g)
    ]


@settings(max_examples=200, deadline=None)
@given(spaces(), st.integers(min_value=1, max_value=40))
def test_a_cells_rectangle_spans_exactly_that_cell(space, granularity):
    """``cell_rect`` and ``cell_span`` cut on one edge, so a cell's own
    rectangle reaches no neighbour."""
    assert _cells_not_spanning_themselves(UniformGrid(space, granularity)) == []


@pytest.mark.parametrize("space, granularity", [
    (Rect(-3.7, 1.1, 11.3, 9.9), 7),
    # The MBR of the perf ledger's 10 000-object corpus at seed 7.
    (Rect(0.0, 7.298250142042699, 3660.1038894412304, 3660.8778093926016), 64),
])
def test_cells_span_themselves_where_edges_are_not_round(space, granularity):
    grid = UniformGrid(space, granularity)
    assert _cells_not_spanning_themselves(grid) == []
    for cell in range(grid.num_cells):
        (only, weight), = grid.signature(grid.cell_rect(cell))
        assert only == cell and weight == pytest.approx(space.area / grid.num_cells)


@settings(max_examples=60, deadline=None)
@given(rects(), st.sampled_from([1, 2, 3, 4, 7, 16]))
def test_signature_covers_clipped_area(region, granularity):
    grid = UniformGrid(SPACE, granularity)
    sig = grid.signature(region)
    clipped = region.intersection_area(SPACE)
    assert sum(w for _, w in sig) == pytest.approx(clipped)


@settings(max_examples=60, deadline=None)
@given(rects(), rects(), st.sampled_from([2, 4, 8]))
def test_common_cells_cover_intersection(a, b, granularity):
    """Key fact behind Lemma 1: the common signature cells of two regions
    carry at least their mutual overlap |a∩b∩space|."""
    grid = UniformGrid(SPACE, granularity)
    sig_a = dict(grid.signature(a))
    sig_b = dict(grid.signature(b))
    common = set(sig_a) & set(sig_b)
    min_sum = sum(min(sig_a[c], sig_b[c]) for c in common)
    x1, y1 = max(a.x1, b.x1, SPACE.x1), max(a.y1, b.y1, SPACE.y1)
    x2, y2 = min(a.x2, b.x2, SPACE.x2), min(a.y2, b.y2, SPACE.y2)
    mutual_area = (x2 - x1) * (y2 - y1) if x1 < x2 and y1 < y2 else 0.0
    assert min_sum >= mutual_area - 1e-9
