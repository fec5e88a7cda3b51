"""Tests for Definitions 1 and 2 (and the extension similarity functions)."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro import Rect, TokenWeighter, spatial_similarity, textual_similarity
from repro.core.similarity import (
    filter_threshold,
    spatial_dice_similarity,
    textual_cosine_similarity,
    textual_dice_similarity,
    token_overlap_weight,
)

from tests.strategies import rects, token_sets


class TestPaperExamples:
    """The worked numbers from Section 2.1."""

    def test_spatial_similarity_o1(self, figure1_objects, figure1_query):
        # Paper: simR(q, o1) = 1000/4400 = 0.23 — below τR = 0.25.
        sim = spatial_similarity(figure1_query.region, figure1_objects[0].region)
        assert sim == pytest.approx(1000 / 4400)
        assert round(sim, 2) == 0.23

    def test_spatial_similarity_o2(self, figure1_objects, figure1_query):
        # Paper: simR(q, o2) = 0.32.
        sim = spatial_similarity(figure1_query.region, figure1_objects[1].region)
        assert sim == pytest.approx(1000 / 3150)
        assert round(sim, 2) == 0.32

    def test_textual_similarity_o1(self, figure1_objects, figure1_weighter, figure1_query):
        # Paper: simT(q, o1) = (w1+w2)/(w1+w2+w3) = 0.58.
        sim = textual_similarity(
            figure1_query.tokens, figure1_objects[0].tokens, figure1_weighter
        )
        w = figure1_weighter
        expected = (w.weight("t1") + w.weight("t2")) / (
            w.weight("t1") + w.weight("t2") + w.weight("t3")
        )
        assert sim == pytest.approx(expected)
        assert sim == pytest.approx(0.58, abs=0.03)

    def test_textual_similarity_o2_full_match(self, figure1_objects, figure1_weighter, figure1_query):
        assert textual_similarity(
            figure1_query.tokens, figure1_objects[1].tokens, figure1_weighter
        ) == pytest.approx(1.0)


class TestTextualEdgeCases:
    @pytest.fixture()
    def weighter(self):
        return TokenWeighter([{"a", "b"}, {"b", "c"}, {"c"}])

    def test_empty_vs_empty(self, weighter):
        assert textual_similarity(frozenset(), frozenset(), weighter) == 1.0

    def test_empty_vs_nonempty(self, weighter):
        assert textual_similarity(frozenset(), frozenset({"a"}), weighter) == 0.0

    def test_disjoint(self, weighter):
        assert textual_similarity(frozenset({"a"}), frozenset({"c"}), weighter) == 0.0

    def test_all_zero_idf(self):
        w = TokenWeighter([{"x"}, {"x"}])
        # "x" appears everywhere -> weight 0 -> sets indistinguishable.
        assert textual_similarity(frozenset({"x"}), frozenset({"x"}), w) == 1.0

    def test_overlap_weight(self, weighter):
        ov = token_overlap_weight(frozenset({"a", "b"}), ["b", "c"], weighter)
        assert ov == pytest.approx(weighter.weight("b"))


class TestVariants:
    @pytest.fixture()
    def weighter(self):
        return TokenWeighter([{"a", "b"}, {"b", "c"}, {"d"}])

    def test_dice_geq_jaccard(self, weighter):
        a, b = frozenset({"a", "b"}), frozenset({"b", "c"})
        assert textual_dice_similarity(a, b, weighter) >= textual_similarity(a, b, weighter)

    def test_cosine_identical(self, weighter):
        a = frozenset({"a", "b"})
        assert textual_cosine_similarity(a, a, weighter) == pytest.approx(1.0)

    def test_cosine_disjoint(self, weighter):
        assert textual_cosine_similarity(frozenset({"a"}), frozenset({"d"}), weighter) == 0.0

    def test_spatial_dice_geq_jaccard(self):
        a, b = Rect(0, 0, 2, 1), Rect(1, 0, 3, 1)
        assert spatial_dice_similarity(a, b) >= spatial_similarity(a, b)


# ----------------------------------------------------------------------
# Property tests
# ----------------------------------------------------------------------

_W = TokenWeighter([{"t0", "t1"}, {"t1", "t2"}, {"t3", "t4"}, {"t5"}, {"t6", "t7", "t8"}])


@given(token_sets, token_sets)
def test_textual_similarity_range_and_symmetry(a, b):
    s = textual_similarity(a, b, _W)
    assert 0.0 <= s <= 1.0 + 1e-12
    assert s == pytest.approx(textual_similarity(b, a, _W))


@given(token_sets)
def test_textual_similarity_reflexive(a):
    assert textual_similarity(a, a, _W) == pytest.approx(1.0)


@given(rects(), rects())
def test_spatial_dice_range(a, b):
    s = spatial_dice_similarity(a, b)
    assert 0.0 <= s <= 1.0


@given(token_sets, token_sets)
def test_cosine_range(a, b):
    s = textual_cosine_similarity(a, b, _W)
    assert 0.0 <= s <= 1.0 + 1e-9


@given(
    st.lists(st.floats(0.01, 20.0), min_size=1, max_size=10),
    st.lists(st.floats(0.01, 20.0), max_size=10),
    st.lists(st.floats(0.01, 20.0), max_size=10),
    st.sampled_from([-1, 0, 1]),
)
# The registry regression's weights: idf ln 2 for t1…t5, 0 for t0.
@example([math.log(2.0)] * 2, [math.log(2.0)] * 3, [0.0], 0)
def test_filter_threshold_is_never_above_what_the_verifier_accepts(common, query_only,
                                                                   object_only, step):
    """τ is set on the pair's own similarity (and an ulp either side):
    whenever the verifier's check ``I ≥ τ·((Q + T) − I)`` passes, every
    float sum of the common weights a filter might hold reaches the
    bound."""
    q_total = math.fsum(common + query_only)
    o_total = math.fsum(common + object_only)
    inter = sum(common)
    union = q_total + o_total - inter
    tau = min(1.0, math.nextafter(inter / union, math.inf * step) if step else inter / union)
    if inter < tau * union:
        return  # the verifier rejects: nothing to keep
    bound = filter_threshold(tau, q_total)
    assert bound <= tau * q_total
    for held in (sum(common), sum(reversed(common)), sum(sorted(common))):
        assert held >= bound


def test_filter_threshold_is_zero_only_for_a_vacuous_threshold():
    assert filter_threshold(0.0, 5.0) == filter_threshold(0.4, 0.0) == 0.0
    assert 0.0 < filter_threshold(0.4, 5.0) < 0.4 * 5.0
