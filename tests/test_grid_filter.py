"""Tests for GridFilter (Section 4, Example 3)."""

from __future__ import annotations

import pytest

from repro import GridFilter, NaiveSearch, Query, Rect
from repro.core.stats import SearchStats

from tests.conftest import FIGURE1_SPACE


class TestPaperExample3:
    @pytest.fixture()
    def grid_filter(self, figure1_objects, figure1_weighter):
        return GridFilter(figure1_objects, figure1_weighter, granularity=4, space=FIGURE1_SPACE)

    def test_answer(self, grid_filter, figure1_query):
        assert grid_filter.search(figure1_query).answers == [1]

    def test_candidates_contain_answers_only_plausible(self, grid_filter, figure1_query):
        stats = SearchStats()
        candidates = set(grid_filter.candidates(figure1_query, stats))
        assert 1 in candidates
        # Objects spatially far from q can never be candidates.
        assert 3 not in candidates  # o4 sits in the top-right corner
        assert 5 not in candidates  # o6 sits at the right edge

    def test_prefix_shorter_than_signature(self, grid_filter, figure1_query):
        """Lemma 2: the query's six cells shrink to a strict prefix under
        cR = 600.  (The paper's illustration drops two cells; our
        reconstructed corpus induces different count(g) statistics, under
        which exactly one cell's weight fits below the threshold.)"""
        sig = grid_filter.scheme.signature_of_region(figure1_query.region)
        assert len(sig) == 6
        assert sum(w for _, w in sig) == pytest.approx(2400.0)  # = |q.R|
        stats = SearchStats()
        grid_filter.candidates(figure1_query, stats)
        assert stats.lists_probed == 5
        assert stats.lists_probed < len(sig)


class TestBehaviour:
    def test_equals_naive_multiple_granularities(
        self, twitter_small, twitter_small_weighter, twitter_small_queries
    ):
        naive = NaiveSearch(twitter_small, twitter_small_weighter)
        for granularity in (4, 16, 64):
            f = GridFilter(twitter_small, twitter_small_weighter, granularity=granularity)
            for q in twitter_small_queries:
                assert f.search(q).answers == naive.search(q).answers, granularity

    def test_finer_grid_fewer_or_equal_candidates(
        self, twitter_small, twitter_small_weighter, twitter_small_queries
    ):
        """Section 4.3: finer granularity strengthens filtering power (on
        average; we assert it on workload totals)."""
        coarse = GridFilter(twitter_small, twitter_small_weighter, granularity=4)
        fine = GridFilter(twitter_small, twitter_small_weighter, granularity=64)
        total_coarse = total_fine = 0
        for q in twitter_small_queries:
            total_coarse += len(coarse.candidates(q, SearchStats()))
            total_fine += len(fine.candidates(q, SearchStats()))
        assert total_fine <= total_coarse

    def test_degenerate_tau_r_zero_full_scan(self, figure1_objects, figure1_weighter):
        f = GridFilter(figure1_objects, figure1_weighter, granularity=4, space=FIGURE1_SPACE)
        q = Query(Rect(0, 0, 1, 1), frozenset({"t1"}), 0.0, 0.5)
        assert len(f.candidates(q, SearchStats())) == len(figure1_objects)

    def test_query_outside_space_no_candidates(self, figure1_objects, figure1_weighter):
        f = GridFilter(figure1_objects, figure1_weighter, granularity=4, space=FIGURE1_SPACE)
        q = Query(Rect(500, 500, 600, 600), frozenset({"t1"}), 0.3, 0.0)
        assert len(f.candidates(q, SearchStats())) == 0

    def test_degenerate_query_region_identical_point_found(self, figure1_weighter):
        from repro.core.objects import make_corpus

        objs = make_corpus([(Rect(10, 10, 10, 10), {"t1"}), (Rect(50, 50, 60, 60), {"t1"})])
        f = GridFilter(objs, granularity=4, space=FIGURE1_SPACE)
        q = Query(Rect(10, 10, 10, 10), frozenset({"t1"}), 0.5, 0.0)
        assert f.search(q).answers == [0]
