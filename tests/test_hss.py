"""Tests for HSS-Greedy (Algorithm 2) and hierarchical grid selection."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import make_corpus
from repro.core.errors import ConfigurationError
from repro.filters import HierarchicalFilter
from repro.geometry import Rect
from repro.grid.hierarchy import GridHierarchy
from repro.signatures.hierarchical import select_frontiers

from tests.conftest import touches
from tests.hss_testlib import hss_greedy, select_token_grids
from tests.strategies import rects

SPACE = Rect(0.0, 0.0, 100.0, 100.0)


def assert_frontier(cells, hierarchy):
    """Selected cells must be pairwise disjoint (a grid-tree frontier)."""
    rects_ = [hierarchy.cell_rect(c) for c in cells]
    for i in range(len(rects_)):
        for j in range(i + 1, len(rects_)):
            assert rects_[i].intersection_area(rects_[j]) == 0.0, (cells[i], cells[j])


class TestHssGreedy:
    def test_budget_respected(self):
        h = GridHierarchy(SPACE, 4)
        regions = [Rect(i * 10, i * 10, i * 10 + 5, i * 10 + 5) for i in range(9)]
        for mt in (1, 2, 4, 8, 16):
            cells = hss_greedy(regions, h, mt)
            assert 1 <= len(cells) <= mt

    def test_bad_mt(self):
        h = GridHierarchy(SPACE, 2)
        with pytest.raises(ConfigurationError):
            hss_greedy([Rect(0, 0, 1, 1)], h, 0)

    def test_single_budget_returns_root(self):
        h = GridHierarchy(SPACE, 3)
        cells = hss_greedy([Rect(0, 0, 50, 50)], h, 1)
        assert cells == [h.ROOT]

    def test_cells_cover_all_regions(self):
        h = GridHierarchy(SPACE, 4)
        regions = [Rect(5, 5, 20, 20), Rect(70, 70, 90, 95), Rect(40, 10, 55, 30)]
        cells = hss_greedy(regions, h, 12)
        for region in regions:
            covered = sum(h.cell_rect(c).intersection_area(region) for c in cells)
            assert covered == pytest.approx(region.area)

    def test_frontier_disjoint(self):
        h = GridHierarchy(SPACE, 4)
        regions = [Rect(5, 5, 20, 20), Rect(70, 70, 90, 95)]
        cells = hss_greedy(regions, h, 10)
        assert_frontier(cells, h)

    def test_refines_where_objects_cluster(self):
        """The greedy splits high-error (dense) quadrants before sparse
        ones: with budget 4+, the crowded bottom-left corner is refined
        below level 1 while the empty rest is not."""
        h = GridHierarchy(SPACE, 4)
        regions = [Rect(i, j, i + 1.5, j + 1.5) for i in range(0, 20, 4) for j in range(0, 20, 4)]
        cells = hss_greedy(regions, h, 8)
        deepest = max(level for level, _, _ in cells)
        assert deepest >= 2

    def test_skips_empty_subtrees(self):
        h = GridHierarchy(SPACE, 4)
        regions = [Rect(1, 1, 2, 2)]  # a single tiny region
        cells = hss_greedy(regions, h, 16)
        # All selected cells intersect the lone region; empty quadrants
        # were never enqueued.
        for cell in cells:
            assert touches(h.cell_rect(cell), regions[0])


class TestSelectTokenGrids:
    def test_trivial_for_rare_tokens(self):
        h = GridHierarchy(SPACE, 4)
        grids = select_token_grids([Rect(0, 0, 1, 1)], h, mt=16, min_objects=4)
        assert grids.cells == (h.ROOT,)

    def test_order_by_level_then_count(self):
        h = GridHierarchy(SPACE, 4)
        regions = [Rect(5, 5, 20, 20), Rect(60, 60, 95, 95), Rect(70, 70, 90, 90)]
        grids = select_token_grids(regions, h, mt=12, min_objects=0)
        levels = [c[0] for c in grids.cells]
        assert levels == sorted(levels)

    def test_payload_is_plain_python(self):
        """What a snapshot pickles: flat lists of int, and float 4-tuples,
        whichever kernel produced them, and no per-token object."""
        f = np.float64  # generated corpora carry NumPy scalars
        regions = [Rect(f(5), f(5), f(20), f(20)), Rect(60, 60, 95, 95), Rect(70, 70, 90, 90)]
        corpus = make_corpus(zip(regions, [{"a"}, {"a", "b"}, {"a", "b"}]))
        for min_objects in (0, 5):
            method = HierarchicalFilter(corpus, mt=12, max_level=4, min_objects=min_objects)
            offsets, codes = method.frontier_offsets, method.frontier_codes
            assert type(offsets) is list and type(codes) is list
            assert type(method.frontier_boxes) is list
            assert all(type(v) is int for v in offsets + codes)
            assert all(type(box) is tuple and len(box) == 4 for box in method.frontier_boxes)
            assert all(type(v) is float for box in method.frontier_boxes for v in box)
            assert offsets[0] == 0 and offsets[-1] == len(codes) == len(method.frontier_boxes)
            assert len(offsets) == len(method.token_ids) + 1

    def test_widths_count_the_cells(self):
        h = GridHierarchy(SPACE, 3)
        regions = [Rect(0, 0, 50, 50), Rect(60, 60, 70, 70)]
        rows = np.array([r.as_tuple() for r in regions * 2])
        widths, cells = select_frontiers(rows, [0, 2, 2, 4], h, [4, 4, 1])
        assert widths.tolist()[1:] == [1, 1] and 1 < widths[0] <= 4
        assert cells.shape == (widths.sum(), 3) and cells.dtype == np.int64
        # The empty token and the budget-1 token keep the root.
        assert cells[widths[0]:].tolist() == [list(h.ROOT)] * 2
        assert [tuple(c) for c in cells[: widths[0]].tolist()] == hss_greedy(regions, h, 4)


@settings(max_examples=30, deadline=None)
@given(st.lists(rects(allow_degenerate=False), min_size=1, max_size=8), st.integers(1, 20))
def test_hss_frontier_properties(regions, mt):
    h = GridHierarchy(Rect(0, 0, 120, 120), 4)
    cells = hss_greedy(regions, h, mt)
    assert 1 <= len(cells) <= max(mt, 1)
    assert_frontier(cells, h)
    # Coverage: every region's full area is covered by selected cells.
    for region in regions:
        covered = sum(h.cell_rect(c).intersection_area(region) for c in cells)
        assert covered == pytest.approx(region.area, rel=1e-9)
