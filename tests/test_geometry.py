"""Unit + property tests for the Rect substrate."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Rect
from repro.geometry.rect import mbr_of, spatial_jaccard

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

    def test_from_points(self):
        r = Rect.from_points([(3, 4), (1, 9), (5, 2)])
        assert r == Rect(1, 2, 5, 9)

    def test_from_points_single(self):
        assert Rect.from_points([(2, 3)]) == Rect(2, 3, 2, 3)

    def test_from_points_empty(self):
        with pytest.raises(ValueError):
            Rect.from_points([])

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

    def test_margin(self):
        assert Rect(0, 0, 4, 6).margin == 10


class TestPredicates:
    def test_intersects_overlap(self):
        assert Rect(0, 0, 2, 2).intersects(Rect(1, 1, 3, 3))

    def test_intersects_touching_edge(self):
        # Closed semantics: shared edge counts as intersecting...
        assert Rect(0, 0, 2, 2).intersects(Rect(2, 0, 4, 2))

    def test_overlaps_touching_edge_is_false(self):
        # ...but carries zero area.
        assert not Rect(0, 0, 2, 2).overlaps(Rect(2, 0, 4, 2))

    def test_disjoint(self):
        assert not Rect(0, 0, 1, 1).intersects(Rect(2, 2, 3, 3))

    def test_contains(self):
        assert Rect(0, 0, 10, 10).contains(Rect(2, 2, 3, 3))
        assert not Rect(0, 0, 10, 10).contains(Rect(2, 2, 11, 3))

    def test_contains_point(self):
        r = Rect(0, 0, 2, 2)
        assert r.contains_point(2, 2)
        assert not r.contains_point(2.1, 2)


class TestCombinators:
    def test_intersection(self):
        assert Rect(0, 0, 4, 4).intersection(Rect(2, 2, 6, 6)) == Rect(2, 2, 4, 4)

    def test_intersection_disjoint_none(self):
        assert Rect(0, 0, 1, 1).intersection(Rect(5, 5, 6, 6)) is None

    def test_intersection_edge_degenerate(self):
        inter = Rect(0, 0, 2, 2).intersection(Rect(2, 0, 4, 2))
        assert inter == Rect(2, 0, 2, 2)
        assert inter.area == 0.0

    def test_intersection_area_paper_example(self):
        # Figure 1 (exact reconstruction): |q.R ∩ o1.R| = 1000 and
        # |q.R ∪ o1.R| = 4400, the numbers Section 2.1 quotes.
        q = Rect(35, 10, 75, 70)
        o1 = Rect(10, 30, 60, 90)
        assert q.intersection_area(o1) == 1000
        assert q.union_area(o1) == 4400

    def test_union_bounding(self):
        assert Rect(0, 0, 1, 1).union(Rect(5, 5, 6, 6)) == Rect(0, 0, 6, 6)

    def test_enlargement(self):
        assert Rect(0, 0, 2, 2).enlargement(Rect(0, 0, 1, 1)) == 0.0
        assert Rect(0, 0, 2, 2).enlargement(Rect(0, 0, 4, 2)) == 4.0

    def test_buffer_grow_and_collapse(self):
        assert Rect(1, 1, 3, 3).buffer(1) == Rect(0, 0, 4, 4)
        collapsed = Rect(1, 1, 3, 3).buffer(-2)
        assert collapsed.width == 0.0 and collapsed.center == (2.0, 2.0)

    def test_translate(self):
        assert Rect(0, 0, 1, 1).translate(2, 3) == Rect(2, 3, 3, 4)

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
def test_intersection_area_matches_intersection_rect(a, b):
    inter = a.intersection(b)
    if inter is None:
        assert a.intersection_area(b) == 0.0
    else:
        assert a.intersection_area(b) == inter.area


@given(rects(), rects())
def test_intersection_bounded_by_operands(a, b):
    inter = a.intersection_area(b)
    assert 0.0 <= inter <= min(a.area, b.area)


@given(rects(), rects())
def test_union_contains_both(a, b):
    u = a.union(b)
    assert u.contains(a) and u.contains(b)


@given(rects(), rects())
def test_union_area_inclusion_exclusion(a, b):
    assert a.union_area(b) == a.area + b.area - a.intersection_area(b)


@given(rects(), rects())
def test_jaccard_range_and_symmetry(a, b):
    s = spatial_jaccard(a, b)
    assert 0.0 <= s <= 1.0
    assert s == spatial_jaccard(b, a)


@given(rects())
def test_jaccard_reflexive(a):
    assert spatial_jaccard(a, a) == 1.0


@given(rects(), rects())
def test_intersects_consistent_with_area(a, b):
    if a.intersection_area(b) > 0.0:
        assert a.intersects(b)
    if not a.intersects(b):
        assert a.intersection_area(b) == 0.0


@given(rects())
def test_iter_and_tuple(a):
    assert tuple(a) == a.as_tuple()
    assert not math.isnan(a.area)


# ----------------------------------------------------------------------
# Named configurations, every number worked by hand
# ----------------------------------------------------------------------

#: (a, b, a ∩ b or None, |a ∩ b|, simR, intersects, overlaps, a ⊇ b, b ⊇ a)
PAIRS = {
    "nested": (Rect(0, 0, 4, 4), Rect(1, 1, 3, 3), Rect(1, 1, 3, 3), 4.0, 4 / 16,
               True, True, True, False),
    "corner-overlap": (Rect(0, 0, 2, 2), Rect(1, 1, 3, 3), Rect(1, 1, 2, 2), 1.0, 1 / 7,
                       True, True, False, False),
    "cross": (Rect(0, 1, 4, 2), Rect(1, 0, 2, 4), Rect(1, 1, 2, 2), 1.0, 1 / 7,
              True, True, False, False),
    "strip-halves": (Rect(0, 0, 4, 1), Rect(2, 0, 6, 1), Rect(2, 0, 4, 1), 2.0, 2 / 6,
                     True, True, False, False),
    "inner-on-edge": (Rect(0, 0, 4, 4), Rect(0, 0, 2, 4), Rect(0, 0, 2, 4), 8.0, 8 / 16,
                      True, True, True, False),
    "shared-edge": (Rect(0, 0, 1, 1), Rect(1, 0, 2, 1), Rect(1, 0, 1, 1), 0.0, 0.0,
                    True, False, False, False),
    "shared-corner": (Rect(0, 0, 1, 1), Rect(1, 1, 2, 2), Rect(1, 1, 1, 1), 0.0, 0.0,
                      True, False, False, False),
    "disjoint-x": (Rect(0, 0, 1, 1), Rect(2, 0, 3, 1), None, 0.0, 0.0,
                   False, False, False, False),
    "disjoint-y": (Rect(0, 0, 1, 1), Rect(0, 2, 1, 3), None, 0.0, 0.0,
                   False, False, False, False),
    "point-in-box": (Rect(0, 0, 2, 2), Rect(1, 1, 1, 1), Rect(1, 1, 1, 1), 0.0, 0.0,
                     True, False, True, False),
    "segment-in-box": (Rect(0, 0, 2, 2), Rect(0, 1, 2, 1), Rect(0, 1, 2, 1), 0.0, 0.0,
                       True, False, True, False),
    "same-segment": (Rect(0, 1, 2, 1), Rect(0, 1, 2, 1), Rect(0, 1, 2, 1), 0.0, 1.0,
                     True, False, True, True),
}


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_combinators_on_named_pairs(name):
    a, b, inter, inter_area, sim, *_ = PAIRS[name]
    for x, y in ((a, b), (b, a)):
        assert x.intersection(y) == inter
        assert x.intersection_area(y) == inter_area
        assert x.union_area(y) == a.area + b.area - inter_area
        assert spatial_jaccard(x, y) == pytest.approx(sim)


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_predicates_on_named_pairs(name):
    a, b, *_, intersects, overlaps, a_contains_b, b_contains_a = PAIRS[name]
    assert a.intersects(b) is b.intersects(a) is intersects
    assert a.overlaps(b) is b.overlaps(a) is overlaps
    assert a.contains(b) is a_contains_b
    assert b.contains(a) is b_contains_a


@pytest.mark.parametrize("amount, expected", [
    (1.0, Rect(1, 1, 7, 5)),
    (0.0, Rect(2, 2, 6, 4)),
    (-0.5, Rect(2.5, 2.5, 5.5, 3.5)),
    (-1.0, Rect(3, 3, 5, 3)),         # height collapses to y = 3
    (-1.5, Rect(3.5, 3, 4.5, 3)),     # past it: height stays at the centre line
    (-5.0, Rect(4, 3, 4, 3)),         # past both: the centre point
], ids=["grow", "zero", "shrink", "flat", "past-height", "past-both"])
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


@pytest.mark.parametrize("other, growth", [
    (Rect(1, 1, 2, 2), 0.0),          # inside
    (Rect(0, 0, 3, 3), 0.0),          # the box itself
    (Rect(3, 0, 5, 3), 6.0),          # sharing an edge: 3x3 -> 5x3
    (Rect(4, 4, 5, 5), 16.0),         # disjoint: 3x3 -> 5x5
], ids=["inside", "itself", "adjacent", "disjoint"])
def test_enlargement_of_a_three_by_three_box(other, growth):
    assert Rect(0, 0, 3, 3).enlargement(other) == growth


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
def test_contained_box_is_its_own_intersection(a, b):
    outer = a.union(b)
    assert outer.intersection(a) == a
    assert outer.intersection_area(a) == a.area
    if a.contains(b):
        assert a.intersection(b) == b


@given(rects(), rects())
def test_overlaps_iff_positive_intersection(a, b):
    assert a.overlaps(b) == (a.intersection_area(b) > 0.0)


@given(rects(), rects())
def test_enlargement_is_zero_iff_contained(a, b):
    growth = a.enlargement(b)
    assert growth >= 0.0
    if a.contains(b):
        assert growth == 0.0
    elif a.area > 0.0:
        assert growth > 0.0


@given(rects(), rects(), st.integers(-40, 40), st.integers(-40, 40))
def test_translation_preserves_area_and_similarity(a, b, dx, dy):
    shift = (dx * 0.25, dy * 0.25)
    ta, tb = a.translate(*shift), b.translate(*shift)
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
    assert grown.contains(a)
    assert grown.center == a.center


@given(st.lists(rects(), min_size=1, max_size=8))
def test_mbr_of_is_the_union_fold(boxes):
    mbr = mbr_of(boxes)
    assert all(mbr.contains(box) for box in boxes)
    folded = boxes[0]
    for box in boxes[1:]:
        folded = folded.union(box)
    assert mbr == folded


@given(rects(), rects())
def test_jaccard_is_at_most_the_area_ratio(a, b):
    # Lemma 1's basis: |a ∩ b| <= min(|a|, |b|) and |a ∪ b| >= max(|a|, |b|).
    if a.area > 0.0 and b.area > 0.0:
        small, large = sorted((a.area, b.area))
        assert spatial_jaccard(a, b) <= small / large
