"""Unit + property tests for the Rect substrate."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Rect
from repro.geometry.rect import corpus_space, mbr_of, spatial_jaccard

from tests.strategies import rects


class TestConstruction:
    def test_valid(self):
        r = Rect(0, 1, 2, 3)
        assert (r.x1, r.y1, r.x2, r.y2) == (0, 1, 2, 3)

    def test_degenerate_point_allowed(self):
        r = Rect(5, 5, 5, 5)
        assert r.area == 0.0
        assert r.width == 0.0

    def test_inverted_x_rejected(self):
        with pytest.raises(ValueError):
            Rect(2, 0, 1, 1)

    def test_inverted_y_rejected(self):
        with pytest.raises(ValueError):
            Rect(0, 2, 1, 1)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Rect(float("nan"), 0, 1, 1)

    def test_from_center(self):
        assert Rect.from_center(5, 5, 4, 2) == Rect(3, 4, 7, 6)

    def test_from_center_negative_rejected(self):
        with pytest.raises(ValueError):
            Rect.from_center(0, 0, -1, 1)


class TestScalars:
    def test_area(self):
        assert Rect(0, 0, 4, 5).area == 20

    def test_center(self):
        assert Rect(0, 0, 4, 6).center == (2, 3)


class TestCombinators:
    def test_intersection_area_paper_example(self):
        # Figure 1 (exact reconstruction): |q.R ∩ o1.R| = 1000 and
        # |q.R ∪ o1.R| = 4400, the numbers Section 2.1 quotes.
        q = Rect(35, 10, 75, 70)
        o1 = Rect(10, 30, 60, 90)
        assert q.intersection_area(o1) == 1000
        assert spatial_jaccard(q, o1) == 1000 / 4400

    def test_union_bounding(self):
        assert Rect(0, 0, 1, 1).union(Rect(5, 5, 6, 6)) == Rect(0, 0, 6, 6)

    def test_buffer_grow(self):
        assert Rect(1, 1, 3, 3).buffer(1) == Rect(0, 0, 4, 4)

    def test_scale(self):
        assert Rect(0, 0, 4, 4).scale(0.5) == Rect(1, 1, 3, 3)

    def test_scale_negative_rejected(self):
        with pytest.raises(ValueError):
            Rect(0, 0, 1, 1).scale(-1)

    def test_mbr_of(self):
        assert mbr_of([Rect(0, 0, 1, 1), Rect(5, -2, 6, 0)]) == Rect(0, -2, 6, 1)

    def test_mbr_of_empty(self):
        with pytest.raises(ValueError):
            mbr_of([])


class TestCorpusSpace:
    def test_positive_area_is_the_mbr(self):
        regions = [Rect(0, 0, 1, 1), Rect(5, -2, 6, 0)]
        assert corpus_space(regions) == Rect(0, -2, 6, 1)

    def test_one_point_is_buffered_by_half_a_unit(self):
        assert corpus_space([Rect(3, 4, 3, 4)] * 3) == Rect(2.5, 3.5, 3.5, 4.5)

    def test_one_line_is_buffered_by_half_its_length(self):
        regions = [Rect(0, 2, 1, 2), Rect(3, 2, 4, 2)]
        assert corpus_space(regions) == Rect(-2, 0, 6, 4)

    def test_short_line_is_buffered_by_at_least_half_a_unit(self):
        assert corpus_space([Rect(0, 0, 0, 0.5)]) == Rect(-0.5, -0.5, 0.5, 1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            corpus_space([])


class TestSimilarity:
    def test_jaccard_identical(self):
        assert spatial_jaccard(Rect(0, 0, 2, 2), Rect(0, 0, 2, 2)) == 1.0

    def test_jaccard_disjoint(self):
        assert spatial_jaccard(Rect(0, 0, 1, 1), Rect(5, 5, 6, 6)) == 0.0

    def test_jaccard_half(self):
        # [0,2]x[0,1] vs [1,3]x[0,1]: inter 1, union 3.
        assert spatial_jaccard(Rect(0, 0, 2, 1), Rect(1, 0, 3, 1)) == pytest.approx(1 / 3)

    def test_jaccard_degenerate_identical(self):
        assert spatial_jaccard(Rect(1, 1, 1, 1), Rect(1, 1, 1, 1)) == 1.0

    def test_jaccard_degenerate_different(self):
        assert spatial_jaccard(Rect(1, 1, 1, 1), Rect(2, 2, 2, 2)) == 0.0


# ----------------------------------------------------------------------
# Property tests
# ----------------------------------------------------------------------


@given(rects(), rects())
def test_intersection_area_symmetric(a, b):
    assert a.intersection_area(b) == b.intersection_area(a)


@given(rects(), rects())
def test_intersection_area_matches_the_overlap_box(a, b):
    x1, y1 = max(a.x1, b.x1), max(a.y1, b.y1)
    x2, y2 = min(a.x2, b.x2), min(a.y2, b.y2)
    if x1 < x2 and y1 < y2:
        assert a.intersection_area(b) == Rect(x1, y1, x2, y2).area
    else:
        assert a.intersection_area(b) == 0.0


@given(rects(), rects())
def test_intersection_bounded_by_operands(a, b):
    inter = a.intersection_area(b)
    assert 0.0 <= inter <= min(a.area, b.area)


@given(rects(), rects())
def test_union_is_the_bounding_box(a, b):
    u = a.union(b)
    assert u == Rect(min(a.x1, b.x1), min(a.y1, b.y1), max(a.x2, b.x2), max(a.y2, b.y2))
    assert u == b.union(a)


@given(rects(), rects())
def test_jaccard_range_and_symmetry(a, b):
    s = spatial_jaccard(a, b)
    assert 0.0 <= s <= 1.0
    assert s == spatial_jaccard(b, a)


@given(rects())
def test_jaccard_reflexive(a):
    assert spatial_jaccard(a, a) == 1.0


@given(rects())
def test_iter_and_tuple(a):
    assert tuple(a) == a.as_tuple()
    assert not math.isnan(a.area)


# ----------------------------------------------------------------------
# Named configurations, every number worked by hand
# ----------------------------------------------------------------------

#: (a, b, |a ∩ b|, simR)
PAIRS = {
    "nested": (Rect(0, 0, 4, 4), Rect(1, 1, 3, 3), 4.0, 4 / 16),
    "corner-overlap": (Rect(0, 0, 2, 2), Rect(1, 1, 3, 3), 1.0, 1 / 7),
    "cross": (Rect(0, 1, 4, 2), Rect(1, 0, 2, 4), 1.0, 1 / 7),
    "strip-halves": (Rect(0, 0, 4, 1), Rect(2, 0, 6, 1), 2.0, 2 / 6),
    "inner-on-edge": (Rect(0, 0, 4, 4), Rect(0, 0, 2, 4), 8.0, 8 / 16),
    "shared-edge": (Rect(0, 0, 1, 1), Rect(1, 0, 2, 1), 0.0, 0.0),
    "shared-corner": (Rect(0, 0, 1, 1), Rect(1, 1, 2, 2), 0.0, 0.0),
    "disjoint-x": (Rect(0, 0, 1, 1), Rect(2, 0, 3, 1), 0.0, 0.0),
    "disjoint-y": (Rect(0, 0, 1, 1), Rect(0, 2, 1, 3), 0.0, 0.0),
    "point-in-box": (Rect(0, 0, 2, 2), Rect(1, 1, 1, 1), 0.0, 0.0),
    "segment-in-box": (Rect(0, 0, 2, 2), Rect(0, 1, 2, 1), 0.0, 0.0),
    "same-segment": (Rect(0, 1, 2, 1), Rect(0, 1, 2, 1), 0.0, 1.0),
}


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_overlap_and_similarity_on_named_pairs(name):
    a, b, inter_area, sim = PAIRS[name]
    for x, y in ((a, b), (b, a)):
        assert x.intersection_area(y) == inter_area
        assert spatial_jaccard(x, y) == pytest.approx(sim)


@pytest.mark.parametrize("amount, expected", [
    (1.0, Rect(1, 1, 7, 5)),
    (0.0, Rect(2, 2, 6, 4)),
    (0.5, Rect(1.5, 1.5, 6.5, 4.5)),
], ids=["grow", "zero", "half"])
def test_buffer_of_a_four_by_two_box(amount, expected):
    assert Rect(2, 2, 6, 4).buffer(amount) == expected


@pytest.mark.parametrize("factor, expected", [
    (0.0, Rect(3, 2, 3, 2)),
    (0.5, Rect(2, 1.5, 4, 2.5)),
    (1.0, Rect(1, 1, 5, 3)),
    (2.0, Rect(-1, 0, 7, 4)),
], ids=["point", "half", "same", "double"])
def test_scale_about_the_centre(factor, expected):
    assert Rect(1, 1, 5, 3).scale(factor) == expected


@pytest.mark.parametrize("corners", [
    (float("nan"), 0, 1, 1), (0, float("nan"), 1, 1),
    (0, 0, float("nan"), 1), (0, 0, 1, float("nan")),
], ids=["x1", "y1", "x2", "y2"])
def test_nan_in_any_corner_rejected(corners):
    with pytest.raises(ValueError):
        Rect(*corners)


# ----------------------------------------------------------------------
# More properties
# ----------------------------------------------------------------------


@given(rects(), rects())
def test_a_box_overlaps_its_cover_by_its_own_area(a, b):
    outer = a.union(b)
    assert outer.intersection_area(a) == a.area
    assert a.intersection_area(outer) == a.area


@given(rects(), rects(), st.integers(-40, 40), st.integers(-40, 40))
def test_translation_preserves_area_and_similarity(a, b, dx, dy):
    def shift(r):
        return Rect(r.x1 + dx * 0.25, r.y1 + dy * 0.25, r.x2 + dx * 0.25, r.y2 + dy * 0.25)

    ta, tb = shift(a), shift(b)
    assert ta.area == a.area
    assert ta.intersection_area(tb) == a.intersection_area(b)
    assert spatial_jaccard(ta, tb) == spatial_jaccard(a, b)


@given(rects(), st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0]))
def test_scale_keeps_the_centre_and_squares_into_the_area(a, factor):
    scaled = a.scale(factor)
    assert scaled.center == a.center
    assert scaled.area == a.area * factor * factor


@given(rects(), st.integers(0, 20))
def test_growing_buffer_covers_the_box(a, steps):
    grown = a.buffer(steps * 0.25)
    assert grown.union(a) == grown
    assert grown.center == a.center


@given(st.lists(rects(), min_size=1, max_size=8))
def test_mbr_of_is_the_union_fold(boxes):
    mbr = mbr_of(boxes)
    folded = boxes[0]
    for box in boxes[1:]:
        folded = folded.union(box)
    assert mbr == folded


@given(st.lists(rects(), min_size=1, max_size=8))
def test_corpus_space_covers_the_corpus_with_positive_area(boxes):
    space = corpus_space(boxes)
    assert space.union(mbr_of(boxes)) == space
    assert space.width > 0.0 and space.height > 0.0
    assert space.center == mbr_of(boxes).center


@given(rects(), rects())
def test_jaccard_is_at_most_the_area_ratio(a, b):
    # Lemma 1's basis: |a ∩ b| <= min(|a|, |b|) and |a ∪ b| >= max(|a|, |b|).
    if a.area > 0.0 and b.area > 0.0:
        small, large = sorted((a.area, b.area))
        assert spatial_jaccard(a, b) <= small / large
