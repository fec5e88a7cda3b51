"""Tests for Lemma 2 (prefix selection) and Lemma 3 (threshold bounds)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.signatures.prefix import prefix_elements, segmented_suffix_bounds, select_prefix

from tests.reference_signatures import suffix_bounds

weights_lists = st.lists(
    st.integers(min_value=0, max_value=40).map(lambda n: n * 0.25), min_size=0, max_size=12
)


def one_signature_bounds(weights):
    """:func:`segmented_suffix_bounds` of a single signature."""
    return segmented_suffix_bounds(np.array(weights, dtype=np.float64), [len(weights)]).tolist()


class TestSuffixBounds:
    def test_basic(self):
        assert one_signature_bounds([3.0, 2.0, 1.0]) == [6.0, 3.0, 1.0]

    def test_empty(self):
        assert one_signature_bounds([]) == []
        assert segmented_suffix_bounds(np.array([]), np.array([0, 0])).tolist() == []

    def test_single(self):
        assert one_signature_bounds([5.0]) == [5.0]

    def test_paper_figure5_bound(self):
        # Figure 5: object o2's grid signature {g9,g10,g11,g13,g14,g15}
        # with weights {225,450,375,150,300,250}; the bound of g14 (the
        # 5th element) is 300+250 = 550, and of g13 is 150+300+250 = 700.
        weights = [225.0, 450.0, 375.0, 150.0, 300.0, 250.0]
        bounds = one_signature_bounds(weights)
        assert bounds[4] == 550.0
        assert bounds[3] == 700.0


@given(st.lists(st.lists(st.floats(0.0, 1e6), min_size=0, max_size=9), min_size=0, max_size=12))
def test_segmented_suffix_bounds_is_suffix_bounds_per_segment(signatures):
    """Bit for bit — arbitrary floats, so any other addition order shows."""
    flat = np.array([w for sig in signatures for w in sig], dtype=np.float64)
    sizes = np.array([len(sig) for sig in signatures], dtype=np.int64)
    expected = [b for sig in signatures for b in suffix_bounds(sig)]
    assert segmented_suffix_bounds(flat, sizes).tolist() == expected


class TestSelectPrefix:
    def test_paper_figure5_query_prefix(self):
        # S_R(q) = {g7,g10,g11,g14,g15,g6}, weights {150,750,450,500,300,250},
        # cR = 600 → prefix {g7,g10,g11,g14}, i.e. p = 4.
        weights = [150.0, 750.0, 450.0, 500.0, 300.0, 250.0]
        assert select_prefix(weights, 600.0) == 4

    def test_zero_threshold_keeps_all(self):
        assert select_prefix([1.0, 2.0], 0.0) == 2

    def test_negative_threshold_keeps_all(self):
        assert select_prefix([1.0, 2.0], -5.0) == 2

    def test_unreachable_threshold_empty_prefix(self):
        assert select_prefix([1.0, 2.0], 10.0) == 0

    def test_threshold_equal_total(self):
        # Σ = 3; suffix after p=0 is 3, not < 3 → must keep at least one.
        assert select_prefix([1.0, 2.0], 3.0) == 1

    def test_empty_signature(self):
        assert select_prefix([], 1.0) == 0
        assert select_prefix([], 0.0) == 0

    def test_prefix_elements_wrapper(self):
        sig = [("a", 3.0), ("b", 2.0), ("c", 1.0)]
        assert list(prefix_elements(sig, 2.5)) == [("a", 3.0), ("b", 2.0)]


# ----------------------------------------------------------------------
# Property tests
# ----------------------------------------------------------------------


@given(weights_lists, st.floats(min_value=0.0, max_value=30.0))
def test_dropped_suffix_weighs_less_than_threshold(weights, threshold):
    p = select_prefix(weights, threshold)
    dropped = sum(weights[p:])
    if threshold > 0:
        assert dropped < threshold
    else:
        assert p == len(weights)


@given(weights_lists, st.floats(min_value=1e-6, max_value=30.0))
def test_prefix_is_minimal(weights, threshold):
    p = select_prefix(weights, threshold)
    if p > 0:
        # Dropping one more element would drop >= threshold weight.
        assert sum(weights[p - 1 :]) >= threshold


@given(weights_lists)
def test_suffix_bounds_decreasing(weights):
    bounds = one_signature_bounds(weights)
    for i in range(len(bounds) - 1):
        assert bounds[i] >= bounds[i + 1]
    if weights:
        assert bounds[0] == pytest.approx(sum(weights))


@given(
    st.lists(st.tuples(st.sampled_from("abcdefgh"), st.integers(1, 8)), min_size=0, max_size=8),
    st.lists(st.tuples(st.sampled_from("abcdefgh"), st.integers(1, 8)), min_size=0, max_size=8),
    st.floats(min_value=0.1, max_value=20.0),
)
def test_prefix_filtering_no_false_negatives(sig_a_raw, sig_b_raw, threshold):
    """The core prefix-filtering guarantee: overlap ≥ c ⟹ prefixes share
    an element with a qualifying Lemma 3 bound on the other side."""
    # Dedup elements, fix a global order (alphabetical = 'by rank').
    sig_a = sorted(dict(sig_a_raw).items())
    sig_b = sorted(dict(sig_b_raw).items())
    weights_b = {e: w for e, w in sig_b}
    overlap = sum(min(w, weights_b[e]) for e, w in sig_a if e in weights_b)
    if overlap < threshold:
        return
    p_a = select_prefix([w for _, w in sig_a], threshold)
    bounds_b = suffix_bounds([w for _, w in sig_b])
    prefix_a = {e for e, _ in sig_a[:p_a]}
    hit = any(
        element in prefix_a and bounds_b[i] >= threshold
        for i, (element, _) in enumerate(sig_b)
    )
    assert hit, "prefix filtering lost a qualifying pair"


@pytest.mark.parametrize("cut", ["select_prefix", "prefix_elements"])
@pytest.mark.parametrize("step", ["below", "on", "above"])
@given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=12), st.data())
def test_cut_on_a_suffix_sum_is_the_per_element_prefix(cut, step, weights, data):
    """``c`` on one of the signature's own suffix sums, to the bit, or
    one ulp either side: the cut keeps exactly the elements whose
    Lemma-3 bound (that suffix sum, added as ``suffix_bounds`` adds it)
    reaches ``c`` — the test a posting's bound gets on the index side —
    and a ``c ≤ 0`` keeps them all."""
    bounds = suffix_bounds(weights)
    c = data.draw(st.sampled_from(bounds))
    if step != "on":
        c = math.nextafter(c, -math.inf if step == "below" else math.inf)
    expected = len(weights) if c <= 0.0 else sum(bound >= c for bound in bounds)
    if cut == "select_prefix":
        assert select_prefix(weights, c) == expected
    else:
        signature = [(f"e{i}", w) for i, w in enumerate(weights)]
        assert list(prefix_elements(signature, c)) == signature[:expected]
