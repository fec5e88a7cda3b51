"""Tests for the Section 2.3 baselines."""

from __future__ import annotations

import pytest

from repro import (
    IRTreeSearch,
    KeywordFirstSearch,
    NaiveSearch,
    Query,
    Rect,
    SpatialFirstSearch,
)
from repro.core.stats import SearchStats


class TestNaive:
    def test_figure1_answer(self, figure1_objects, figure1_weighter, figure1_query):
        naive = NaiveSearch(figure1_objects, figure1_weighter)
        assert naive.search(figure1_query).answers == [1]

    def test_zero_thresholds_return_everything(self, figure1_objects, figure1_weighter):
        naive = NaiveSearch(figure1_objects, figure1_weighter)
        q = Query(Rect(0, 0, 120, 120), frozenset({"t1"}), 0.0, 0.0)
        assert naive.search(q).answers == list(range(7))

    def test_max_thresholds(self, figure1_objects, figure1_weighter):
        naive = NaiveSearch(figure1_objects, figure1_weighter)
        o2 = figure1_objects[1]
        q = Query(o2.region, o2.tokens, 1.0, 1.0)
        assert naive.search(q).answers == [1]

    def test_boundary_similarity_included(self, figure1_objects, figure1_weighter, figure1_query):
        """simR(q, o2) = 1000/3150; a threshold equal to it keeps o2."""
        naive = NaiveSearch(figure1_objects, figure1_weighter)
        q = figure1_query.with_thresholds(tau_r=1000 / 3150)
        assert 1 in naive.search(q).answers


class TestKeywordFirst:
    def test_figure1(self, figure1_objects, figure1_weighter, figure1_query):
        kw = KeywordFirstSearch(figure1_objects, figure1_weighter)
        assert kw.search(figure1_query).answers == [1]

    def test_candidates_satisfy_textual_threshold(
        self, figure1_objects, figure1_weighter, figure1_query
    ):
        from repro.core.similarity import textual_similarity

        kw = KeywordFirstSearch(figure1_objects, figure1_weighter)
        for oid in kw.candidates(figure1_query, SearchStats()):
            sim = textual_similarity(
                figure1_query.tokens, figure1_objects[oid].tokens, figure1_weighter
            )
            assert sim >= figure1_query.tau_t

    def test_equals_naive(self, twitter_small, twitter_small_weighter, twitter_small_queries):
        kw = KeywordFirstSearch(twitter_small, twitter_small_weighter)
        naive = NaiveSearch(twitter_small, twitter_small_weighter)
        for q in twitter_small_queries:
            assert kw.search(q).answers == naive.search(q).answers

    def test_degenerate_tau_t(self, figure1_objects, figure1_weighter):
        kw = KeywordFirstSearch(figure1_objects, figure1_weighter)
        q = Query(Rect(0, 0, 120, 120), frozenset({"t1"}), 0.5, 0.0)
        assert len(kw.candidates(q, SearchStats())) == len(figure1_objects)

    def test_zero_weight_query_tokens_regression(self):
        """Hypothesis-found hole: an empty/zero-idf query token set has
        simT = 1 against zero-weight objects despite sharing no token;
        the inverted lists cannot reach them, so the method must scan."""
        from repro.core.objects import make_corpus

        objs = make_corpus([(Rect(0, 0, 0, 0), {"t0"})])  # single object: idf(t0) = 0
        kw = KeywordFirstSearch(objs)
        q = Query(Rect(0, 0, 0, 0), frozenset(), 0.0, 0.1)
        assert kw.search(q).answers == [0]

    def test_index_size(self, figure1_objects, figure1_weighter):
        kw = KeywordFirstSearch(figure1_objects, figure1_weighter)
        assert kw.index_size().num_postings == sum(len(o.tokens) for o in figure1_objects)


class TestSpatialFirst:
    def test_figure1(self, figure1_objects, figure1_weighter, figure1_query):
        sp = SpatialFirstSearch(figure1_objects, figure1_weighter, max_entries=3)
        assert sp.search(figure1_query).answers == [1]

    def test_candidates_satisfy_spatial_threshold(
        self, figure1_objects, figure1_weighter, figure1_query
    ):
        from repro.core.similarity import spatial_similarity

        sp = SpatialFirstSearch(figure1_objects, figure1_weighter)
        for oid in sp.candidates(figure1_query, SearchStats()):
            assert (
                spatial_similarity(figure1_query.region, figure1_objects[oid].region)
                >= figure1_query.tau_r
            )

    def test_equals_naive(self, twitter_small, twitter_small_weighter, twitter_small_queries):
        sp = SpatialFirstSearch(twitter_small, twitter_small_weighter)
        naive = NaiveSearch(twitter_small, twitter_small_weighter)
        for q in twitter_small_queries:
            assert sp.search(q).answers == naive.search(q).answers

    def test_degenerate_tau_r(self, figure1_objects, figure1_weighter):
        sp = SpatialFirstSearch(figure1_objects, figure1_weighter)
        q = Query(Rect(0, 0, 1, 1), frozenset({"t1"}), 0.0, 0.5)
        assert len(sp.candidates(q, SearchStats())) == len(figure1_objects)


class TestIRTree:
    def test_figure1(self, figure1_objects, figure1_weighter, figure1_query):
        ir = IRTreeSearch(figure1_objects, figure1_weighter, max_entries=3)
        assert ir.search(figure1_query).answers == [1]

    def test_equals_naive(self, twitter_small, twitter_small_weighter, twitter_small_queries):
        ir = IRTreeSearch(twitter_small, twitter_small_weighter)
        naive = NaiveSearch(twitter_small, twitter_small_weighter)
        for q in twitter_small_queries:
            assert ir.search(q).answers == naive.search(q).answers

    def test_equals_naive_small_fanout(
        self, twitter_small, twitter_small_weighter, twitter_small_queries
    ):
        ir = IRTreeSearch(twitter_small, twitter_small_weighter, max_entries=4)
        naive = NaiveSearch(twitter_small, twitter_small_weighter)
        for q in twitter_small_queries:
            assert ir.search(q).answers == naive.search(q).answers

    def test_node_tokens_union_of_children(self, figure1_objects, figure1_weighter):
        ir = IRTreeSearch(figure1_objects, figure1_weighter, max_entries=3)
        root_tokens = ir._node_tokens[ir.rtree.root]
        assert root_tokens == {"t1", "t2", "t3", "t4", "t5"}

    def test_zero_thresholds_visit_everything(self, figure1_objects, figure1_weighter):
        ir = IRTreeSearch(figure1_objects, figure1_weighter, max_entries=3)
        q = Query(Rect(0, 0, 120, 120), frozenset({"t1"}), 0.0, 0.0)
        assert sorted(ir.search(q).answers) == list(range(7))

    def test_index_larger_than_token_inverted(self, twitter_small, twitter_small_weighter):
        """Section 2.3's space complaint: the IR-tree indexes each token
        once per tree level, so it dwarfs a flat token index."""
        from repro import TokenFilter

        ir = IRTreeSearch(twitter_small, twitter_small_weighter, max_entries=8)
        token = TokenFilter(twitter_small, twitter_small_weighter)
        assert ir.index_size().total_bytes > token.index_size().total_bytes
