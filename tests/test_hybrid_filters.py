"""Tests for the hash-based and hierarchical hybrid filters (Section 5)."""

from __future__ import annotations

import pytest

from repro import (
    GridFilter,
    HierarchicalFilter,
    HybridFilter,
    NaiveSearch,
    Query,
    Rect,
    TokenFilter,
)
from repro.core.errors import ConfigurationError
from repro.core.stats import SearchStats

from tests.conftest import FIGURE1_SPACE
from tests.hss_testlib import frontiers


class TestHybridFilter:
    @pytest.fixture()
    def hybrid(self, figure1_objects, figure1_weighter):
        return HybridFilter(figure1_objects, figure1_weighter, granularity=4, space=FIGURE1_SPACE)

    def test_answer(self, hybrid, figure1_query):
        assert hybrid.search(figure1_query).answers == [1]

    def test_candidates_tighter_than_single_axis(
        self, hybrid, figure1_objects, figure1_weighter, figure1_query
    ):
        """Example 4's point: hybrid candidates ⊆ token ∩ grid candidates."""
        token = TokenFilter(figure1_objects, figure1_weighter)
        grid = GridFilter(figure1_objects, figure1_weighter, granularity=4, space=FIGURE1_SPACE)
        c_hybrid = set(hybrid.candidates(figure1_query, SearchStats()))
        c_token = set(token.candidates(figure1_query, SearchStats()))
        c_grid = set(grid.candidates(figure1_query, SearchStats()))
        assert c_hybrid <= c_token
        assert c_hybrid <= c_grid

    def test_equals_naive(self, twitter_small, twitter_small_weighter, twitter_small_queries):
        naive = NaiveSearch(twitter_small, twitter_small_weighter)
        f = HybridFilter(twitter_small, twitter_small_weighter, granularity=16)
        for q in twitter_small_queries:
            assert f.search(q).answers == naive.search(q).answers

    def test_bucketed_equals_naive(
        self, twitter_small, twitter_small_weighter, twitter_small_queries
    ):
        naive = NaiveSearch(twitter_small, twitter_small_weighter)
        for buckets in (64, 1024):
            f = HybridFilter(twitter_small, twitter_small_weighter, granularity=16, num_buckets=buckets)
            for q in twitter_small_queries:
                assert f.search(q).answers == naive.search(q).answers, buckets

    def test_bucketed_superset_of_exact(
        self, twitter_small, twitter_small_weighter, twitter_small_queries
    ):
        """Bucket collisions add candidates but never remove them."""
        exact = HybridFilter(twitter_small, twitter_small_weighter, granularity=16)
        bucketed = HybridFilter(twitter_small, twitter_small_weighter, granularity=16, num_buckets=32)
        for q in twitter_small_queries:
            c_exact = set(exact.candidates(q, SearchStats()))
            c_bucketed = set(bucketed.candidates(q, SearchStats()))
            assert c_exact <= c_bucketed

    def test_bucket_count_bounds_directory(self, twitter_small, twitter_small_weighter):
        f = HybridFilter(twitter_small, twitter_small_weighter, granularity=16, num_buckets=128)
        assert len(f.index) <= 128

    def test_degenerate_thresholds_full_scan(self, hybrid, figure1_objects):
        for tau_r, tau_t in [(0.0, 0.5), (0.5, 0.0)]:
            q = Query(Rect(0, 0, 120, 120), frozenset({"t1"}), tau_r, tau_t)
            assert len(hybrid.candidates(q, SearchStats())) == len(figure1_objects)

    def test_index_size_counts_cross_product(self, figure1_objects, figure1_weighter):
        f = HybridFilter(figure1_objects, figure1_weighter, granularity=4, space=FIGURE1_SPACE)
        expected = sum(
            len(obj.tokens) * len(f.spatial.signature_of_region(obj.region))
            for obj in figure1_objects
        )
        assert f.index_size().num_postings == expected


class TestHierarchicalFilter:
    @pytest.fixture()
    def seal(self, figure1_objects, figure1_weighter):
        return HierarchicalFilter(
            figure1_objects, mt=8, max_level=4, weighter=figure1_weighter,
            space=FIGURE1_SPACE, min_objects=0,
        )

    def test_answer(self, seal, figure1_query):
        assert seal.search(figure1_query).answers == [1]

    def test_equals_naive(self, twitter_small, twitter_small_weighter, twitter_small_queries):
        naive = NaiveSearch(twitter_small, twitter_small_weighter)
        f = HierarchicalFilter(
            twitter_small, mt=8, max_level=6, weighter=twitter_small_weighter, min_objects=2
        )
        for q in twitter_small_queries:
            assert f.search(q).answers == naive.search(q).answers

    def test_equals_naive_various_budgets(
        self, twitter_small, twitter_small_weighter, twitter_small_queries
    ):
        naive = NaiveSearch(twitter_small, twitter_small_weighter)
        for mt in (1, 4, 32):
            f = HierarchicalFilter(
                twitter_small, mt=mt, max_level=5, weighter=twitter_small_weighter
            )
            for q in twitter_small_queries:
                assert f.search(q).answers == naive.search(q).answers, mt

    def test_budget_scaling_equals_naive(
        self, twitter_small, twitter_small_weighter, twitter_small_queries
    ):
        naive = NaiveSearch(twitter_small, twitter_small_weighter)
        f = HierarchicalFilter(
            twitter_small, mt=64, max_level=6, weighter=twitter_small_weighter,
            budget_scaling=0.1,
        )
        for q in twitter_small_queries:
            assert f.search(q).answers == naive.search(q).answers

    def test_budget_scaling_respects_cap_and_floor(self, twitter_small, twitter_small_weighter):
        f = HierarchicalFilter(
            twitter_small, mt=16, max_level=6, weighter=twitter_small_weighter,
            budget_scaling=0.05, min_objects=0,
        )
        for grids in frontiers(f).values():
            assert 1 <= len(grids.cells) <= 16

    def test_bad_budget_scaling(self, figure1_objects):
        with pytest.raises(ConfigurationError):
            HierarchicalFilter(figure1_objects, budget_scaling=0.0)

    def test_token_grids_budget(self, seal):
        for token, grids in frontiers(seal).items():
            assert 1 <= len(grids.cells) <= seal.mt, token

    def test_bad_mt(self, figure1_objects):
        with pytest.raises(ConfigurationError):
            HierarchicalFilter(figure1_objects, mt=0)

    def test_degenerate_thresholds_full_scan(self, seal, figure1_objects):
        for tau_r, tau_t in [(0.0, 0.5), (0.5, 0.0)]:
            q = Query(Rect(0, 0, 120, 120), frozenset({"t1"}), tau_r, tau_t)
            assert len(seal.candidates(q, SearchStats())) == len(figure1_objects)

    def test_query_token_absent_from_corpus(self, seal):
        q = Query(Rect(0, 0, 120, 120), frozenset({"zzz", "t1"}), 0.1, 0.1)
        # Must not crash; correctness covered by naive comparison elsewhere.
        seal.search(q)

    def test_smaller_index_than_hash_hybrid(
        self, twitter_small, twitter_small_weighter
    ):
        """Section 5.2's motivation: hierarchical grids avoid the useless
        fine-grained elements the fixed-granularity cross product creates."""
        hash_f = HybridFilter(twitter_small, twitter_small_weighter, granularity=64)
        hier_f = HierarchicalFilter(
            twitter_small, mt=8, max_level=6, weighter=twitter_small_weighter
        )
        assert (
            hier_f.index_size().num_postings <= hash_f.index_size().num_postings
        )
