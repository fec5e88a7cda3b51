"""Tests for tokenisation and idf weighting."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.text import TokenWeighter, tokenize


class TestTokenize:
    def test_basic(self):
        assert tokenize("Starbucks mocha, coffee!") == {"starbucks", "mocha", "coffee"}

    def test_stopwords_dropped(self):
        assert tokenize("the coffee and the tea") == {"coffee", "tea"}

    def test_numbers_kept(self):
        assert "24" in tokenize("open 24 hours")

    def test_empty(self):
        assert tokenize("") == frozenset()

    def test_dedup(self):
        assert tokenize("tea tea tea") == {"tea"}


class TestTokenWeighter:
    def test_idf_values(self):
        # 4 objects; "rare" in 1, "common" in all 4.
        sets = [{"common", "rare"}, {"common"}, {"common"}, {"common"}]
        w = TokenWeighter(sets)
        assert w.weight("rare") == pytest.approx(math.log(4))
        assert w.weight("common") == 0.0

    def test_unknown_token_max_idf(self):
        w = TokenWeighter([{"a"}, {"b"}])
        assert w.weight("zzz") == pytest.approx(math.log(2))

    def test_document_frequency(self):
        # count(a) = 2 of 2 objects, count(b) = 1.
        w = TokenWeighter([{"a", "b"}, {"a"}])
        assert w.weight("a") == 0.0
        assert w.weight("b") == pytest.approx(math.log(2))

    def test_duplicates_within_object_count_once(self):
        w = TokenWeighter([["a", "a", "a"], ["b"]])
        assert w.weight("a") == pytest.approx(math.log(2))

    def test_total_weight(self):
        w = TokenWeighter([{"a"}, {"b"}])
        assert w.total_weight({"a", "b"}) == pytest.approx(2 * math.log(2))

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            TokenWeighter([])

    def test_global_order_descending_idf(self):
        sets = [{"rare", "mid"}, {"mid", "common"}, {"common"}, {"common"}]
        w = TokenWeighter(sets)
        assert w.sort_tokens({"common", "mid", "rare"}) == ["rare", "mid", "common"]

    def test_order_tie_broken_by_token(self):
        w = TokenWeighter([{"a", "b"}])
        assert w.sort_tokens(["b", "a"]) == ["a", "b"]

    def test_unknown_tokens_sort_as_count_one(self):
        # Unseen "zzz" has the maximal idf, tied with "b" (count 1): the
        # tie goes by token string; "a" (count 2) comes last.
        w = TokenWeighter([{"a"}, {"a", "b"}])
        assert w.sort_tokens({"a", "b", "zzz"}) == ["b", "zzz", "a"]
        assert w.sort_tokens({"a", "0"}) == ["0", "a"]

    def test_sort_tokens(self):
        sets = [{"rare", "common"}, {"common"}, {"common"}]
        w = TokenWeighter(sets)
        assert w.sort_tokens({"common", "rare"}) == ["rare", "common"]

    def test_contains_and_len(self):
        w = TokenWeighter([{"a", "b"}])
        assert "a" in w and "zzz" not in w
        assert len(w) == 2

    def test_figure1_idf(self, figure1_weighter):
        # Paper values (rounded to one decimal): t1 0.8, t2 0.3, t3 0.8,
        # t4 1.3, t5 0.6.
        assert figure1_weighter.weight("t1") == pytest.approx(math.log(7 / 3))
        assert figure1_weighter.weight("t2") == pytest.approx(math.log(7 / 5))
        assert figure1_weighter.weight("t4") == pytest.approx(math.log(7 / 2))
        assert round(figure1_weighter.weight("t1"), 1) == 0.8
        assert round(figure1_weighter.weight("t4"), 1) == 1.3
        assert round(figure1_weighter.weight("t5"), 1) == 0.6


class TestFromCounts:
    def test_roundtrip(self):
        w = TokenWeighter.from_counts({"a": 1, "b": 2}, num_objects=4)
        assert w.weight("a") == pytest.approx(math.log(4))
        assert w.weight("b") == pytest.approx(math.log(2))

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            TokenWeighter.from_counts({"a": 0}, num_objects=2)
        with pytest.raises(ValueError):
            TokenWeighter.from_counts({"a": 3}, num_objects=2)
        with pytest.raises(ValueError):
            TokenWeighter.from_counts({"a": 1}, num_objects=0)


@given(st.lists(st.frozensets(st.sampled_from("abcdef"), min_size=1, max_size=4), min_size=1, max_size=20))
def test_weights_nonnegative_and_bounded(token_sets):
    w = TokenWeighter(token_sets)
    n = len(token_sets)
    for token_set in token_sets:
        for t in token_set:
            assert 0.0 <= w.weight(t) <= math.log(n) + 1e-12


@given(st.lists(st.frozensets(st.sampled_from("abcdef"), min_size=1, max_size=4), min_size=1, max_size=20))
def test_global_order_is_total(token_sets):
    w = TokenWeighter(token_sets)
    vocab = sorted({t for token_set in token_sets for t in token_set})
    order = w.sort_tokens(vocab)
    # Any input order sorts to the same list: the order is total.
    assert w.sort_tokens(reversed(vocab)) == order
    assert sorted(order) == vocab
    # Descending weight along the order, ties by token.
    keys = [(-w.weight(t), t) for t in order]
    assert keys == sorted(keys)
