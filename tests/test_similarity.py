"""Tests for Definitions 1 and 2 and the filter-side bound."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro import TokenWeighter, spatial_similarity, textual_similarity
from repro.core.similarity import filter_ceiling, filter_threshold

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


# ----------------------------------------------------------------------
# Definition 2 on hand-set weights, and Lemma 1's band
# ----------------------------------------------------------------------

#: |O| = 8: w(a) = ln 8 = 3·ln 2, w(b) = ln 4 = 2·ln 2, w(c) = ln 2, w(d) = 0;
#: an unseen token weighs ln |O| = 3·ln 2.
_HAND = TokenWeighter.from_counts({"a": 1, "b": 2, "c": 4, "d": 8}, num_objects=8)


@pytest.mark.parametrize("q, o, expected", [
    ({"a"}, {"a", "b"}, 3 / 5),
    ({"a", "b"}, {"b", "c"}, 2 / 6),
    ({"a", "b", "c"}, {"c"}, 1 / 6),
    ({"a", "d"}, {"a"}, 1.0),          # a weight-0 token is neutral
    ({"b", "d"}, {"c", "d"}, 0.0),     # sharing only a weight-0 token
    ({"a", "unseen"}, {"a"}, 3 / 6),   # an unseen query token weighs ln |O|
    ({"b"}, {"c"}, 0.0),
], ids=["subset", "partial", "light-common", "zero-weight-extra", "zero-weight-common",
        "unseen-token", "disjoint"])
def test_weighted_jaccard_on_hand_weights(q, o, expected):
    assert textual_similarity(frozenset(q), frozenset(o), _HAND) == pytest.approx(expected)
    assert textual_similarity(frozenset(o), frozenset(q), _HAND) == pytest.approx(expected)


@given(token_sets, token_sets)
def test_a_corpus_wide_token_is_neutral(a, b):
    weighter = TokenWeighter([{"t0", "every"}, {"t1", "every"}, {"t2", "t3", "every"}])
    assert weighter.weight("every") == 0.0
    if weighter.total_weight(a | b) > 0.0:
        assert textual_similarity(a | {"every"}, b, weighter) == pytest.approx(
            textual_similarity(a, b, weighter))


@given(token_sets, token_sets, st.sampled_from(sorted(f"t{i}" for i in range(12))))
def test_a_token_only_one_side_has_never_raises_similarity(a, b, extra):
    if extra not in b:
        assert textual_similarity(a | {extra}, b, _W) <= textual_similarity(a, b, _W) + 1e-12


@pytest.mark.parametrize("tau, total", [(0.25, 40.0), (0.5, 1.0), (1.0, 3.0), (0.1, 1e-300)])
def test_filter_ceiling_is_just_above_the_exact_ceiling(tau, total):
    ceiling = filter_ceiling(tau, total)
    assert total / tau <= ceiling <= total / tau * (1.0 + 2.0 ** -29)
    assert filter_threshold(tau, total) <= tau * total <= ceiling


@given(rects(allow_degenerate=False), rects(), st.sampled_from([0.1, 0.25, 0.4, 0.5, 0.75, 1.0]))
def test_lemma1_band_holds_every_accepted_region(q, o, tau):
    """simR(q, o) ≥ τR implies τR·|q| ≤ |o| ≤ |q|/τR, and the filter-side
    bounds are looser still."""
    if spatial_similarity(q, o) >= tau:
        assert filter_threshold(tau, q.area) <= o.area <= filter_ceiling(tau, q.area)
