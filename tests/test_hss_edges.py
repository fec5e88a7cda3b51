"""Edge cases of the batched HSS kernel, pinned two ways.

Every fixture is checked against the scalar reference (same frontier,
same pop order, same frozen index) and against ``naive`` answers through
a full ``HierarchicalFilter``.  Coordinates are dyadic inside a 128×128
space, so every product and sum is exact in both implementations: the
frontiers must agree to the last tie, not merely up to rounding.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Query, TokenWeighter, build_method, make_corpus
from repro.geometry import Rect
from repro.grid.hierarchy import GridHierarchy
from repro.signatures import hierarchical
from repro.signatures.hierarchical import (
    hss_greedy,
    hss_greedy_many,
    select_token_grids,
)

from tests import reference_hss as reference
from tests.strategies import rects
from tests.reference_postings import assert_same_index

SPACE = Rect(0.0, 0.0, 128.0, 128.0)

FIXTURES = {
    # Points and segments: every Î is 0, every error ties at 0.0, and the
    # frontier is decided by the closed membership test alone.
    "zero-area": [
        Rect(10, 10, 10, 10),
        Rect(5, 5, 5, 40),
        Rect(64, 64, 64, 64),      # on the four-way corner of the root's quadrants
        Rect(20, 96, 90, 96),      # a segment along a level-2 boundary
        Rect(127, 1, 127, 1),
        Rect(33, 70, 33, 70),
    ],
    # Edges exactly on cell boundaries at several levels: `<=` puts a
    # region in both neighbours, `<` would drop it from one.
    "on-boundaries": [
        Rect(32, 32, 64, 64),
        Rect(64, 0, 128, 64),
        Rect(0, 64, 64, 64),
        Rect(48, 48, 64, 64),
        Rect(64, 64, 80, 80),
        Rect(96, 96, 128, 128),
        Rect(16, 80, 32, 96),
    ],
    # Exact error ties between siblings; push order must break them.
    "all-identical": [Rect(16, 16, 48, 48)] * 7,
    "symmetric": [
        Rect(8, 8, 24, 24),
        Rect(104, 8, 120, 24),
        Rect(8, 104, 24, 120),
        Rect(104, 104, 120, 120),
        Rect(56, 56, 72, 72),
    ],
    "single": [Rect(3, 5, 40, 77)],
    # Not dyadic: the rounding paths of the two kernels differ here.
    "irregular": [
        Rect(x, y, x + w, y + h)
        for x, y, w, h in np.random.default_rng(5).uniform(0.0, 60.0, size=(40, 4)).tolist()
    ],
}


def same_frontier(regions, hierarchy, mt):
    ours = hss_greedy(regions, hierarchy, mt)
    assert ours == reference.hss_greedy(regions, hierarchy, mt)
    return ours


@pytest.mark.parametrize("max_level", [1, 5])
@pytest.mark.parametrize("mt", [1, 4, 32])
@pytest.mark.parametrize("name", FIXTURES)
def test_frontier_matches_reference(name, mt, max_level):
    regions = FIXTURES[name]
    hierarchy = GridHierarchy(SPACE, max_level)
    cells = same_frontier(regions, hierarchy, mt)
    assert 1 <= len(cells) <= mt
    assert max(level for level, _, _ in cells) <= max_level
    grids = select_token_grids(regions, hierarchy, mt)
    expected = reference.select_token_grids(regions, hierarchy, mt)
    assert (grids.cells, grids.boxes) == (
        expected.cells, expected.boxes,
    )


def test_zero_area_regions_tie_at_zero_error():
    """With every error 0.0 the heap is pure push order: the frontier is
    the breadth-first one the scalar greedy produced."""
    hierarchy = GridHierarchy(SPACE, 5)
    cells = same_frontier(FIXTURES["zero-area"], hierarchy, 32)
    assert len(cells) > 1


def test_boundary_region_reaches_both_neighbours():
    hierarchy = GridHierarchy(SPACE, 1)
    # The segment x = 64 lies on the boundary between the root's halves.
    cells = same_frontier([Rect(64, 10, 64, 20)], hierarchy, 4)
    assert sorted(cells) == [(1, 0, 0), (1, 0, 1)]


def test_identical_regions_refine_in_push_order():
    hierarchy = GridHierarchy(SPACE, 5)
    cells = same_frontier(FIXTURES["all-identical"], hierarchy, 8)
    # [16,48]² puts the same 16×16 corner in each of the four level-2
    # cells around (32, 32), so their errors tie exactly; the budget lets
    # one of them be refined, and it must be the first pushed.
    tied = [(2, 0, 0), (2, 0, 1), (2, 1, 0), (2, 1, 1)]
    assert [cell for cell in tied if cell in cells] == tied[1:]


@pytest.mark.parametrize("count", [0, 3, 4, 5])
def test_short_lists_keep_the_root(count):
    hierarchy = GridHierarchy(SPACE, 5)
    regions = FIXTURES["on-boundaries"][:count]
    grids = select_token_grids(regions, hierarchy, 32, min_objects=4)
    expected = reference.select_token_grids(regions, hierarchy, 32, min_objects=4)
    assert grids.cells == expected.cells and grids.boxes == expected.boxes
    assert (grids.cells == (hierarchy.ROOT,)) == (count <= 4)


def test_batches_do_not_change_frontiers(monkeypatch):
    """Lock-step batching is an execution detail: any batch size, and a
    token larger than the batch, give the frontiers of one token at a time."""
    hierarchy = GridHierarchy(SPACE, 5)
    lists = [FIXTURES[name] for name in FIXTURES] + [[]]
    budgets = [32, 4, 8, 32, 2, 16, 3]
    rows = np.array([r.as_tuple() for regions in lists for r in regions]).reshape(-1, 4)
    offsets = np.concatenate([[0], np.cumsum([len(regions) for regions in lists])])
    alone = [hss_greedy(regions, hierarchy, mt) for regions, mt in zip(lists, budgets)]
    assert alone[-1] == [hierarchy.ROOT]
    for batch_rows in (1, 8, 50, 1 << 16):
        monkeypatch.setattr(hierarchical, "_BATCH_ROWS", batch_rows)
        assert hss_greedy_many(rows, offsets, hierarchy, budgets) == alone


@pytest.mark.parametrize("max_level", [1, 5])
@pytest.mark.parametrize("mt", [1, 4, 32])
def test_filter_matches_reference_and_naive(mt, max_level):
    """All fixtures in one corpus, one shared token per fixture plus a
    token every object carries; then the whole filter, end to end."""
    pairs = [
        (region, {name, "everywhere", f"{name}-{i % 3}"})
        for name, regions in FIXTURES.items()
        for i, region in enumerate(regions)
    ]
    corpus = make_corpus(pairs)
    weighter = TokenWeighter(obj.tokens for obj in corpus)
    params = {"mt": mt, "max_level": max_level, "space": SPACE, "min_objects": 4}
    naive = build_method(corpus, "naive", weighter)
    method = build_method(corpus, "seal", weighter, **params)
    grids = reference.token_grids(
        corpus, method.hierarchy, mt=mt, min_objects=4, budget_scaling=None
    )
    assert {t: g.cells for t, g in method.token_grids.items()} == {
        t: g.cells for t, g in grids.items()
    }
    assert_same_index(
        method.index, reference.hierarchical_index(corpus, method, grids)
    )
    for region in (Rect(0, 0, 128, 128), Rect(30, 30, 66, 66), Rect(64, 64, 64, 64),
                   Rect(16, 16, 48, 48), Rect(5, 5, 5, 40), Rect(60, 0, 128, 70)):
        for tokens in ({"everywhere"}, {"all-identical", "everywhere"}, {"zero-area"}):
            for tau_r, tau_t in ((0.0, 0.3), (0.1, 0.1), (0.5, 0.2), (1.0, 0.0)):
                query = Query(region, frozenset(tokens), tau_r, tau_t)
                assert method.search(query).answers == naive.search(query).answers


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(rects(), min_size=1, max_size=8), min_size=1, max_size=4),
    st.integers(1, 20),
    st.integers(1, 4),
)
def test_frontier_properties(lists, mt, max_level):
    """The frontier is pairwise disjoint, covers every input region, has
    at most ``mt`` cells — and is the scalar greedy's, for every token of
    a lock-step batch."""
    hierarchy = GridHierarchy(Rect(0, 0, 120, 120), max_level)
    rows = np.array([r.as_tuple() for regions in lists for r in regions]).reshape(-1, 4)
    offsets = np.concatenate([[0], np.cumsum([len(regions) for regions in lists])])
    frontiers = hss_greedy_many(rows, offsets, hierarchy, [mt] * len(lists))
    for regions, cells in zip(lists, frontiers):
        assert cells == reference.hss_greedy(regions, hierarchy, mt)
        assert 1 <= len(cells) <= mt
        boxes = [hierarchy.cell_rect(cell) for cell in cells]
        for i, a in enumerate(boxes):
            for b in boxes[i + 1:]:
                assert a.intersection_area(b) == 0.0
        for region in regions:
            assert any(box.intersects(region) for box in boxes)
            covered = sum(box.intersection_area(region) for box in boxes)
            assert covered == pytest.approx(region.area, rel=1e-9)
