"""Tests for TokenFilter (Section 3.2, Example 2)."""

from __future__ import annotations

import pytest

from repro import NaiveSearch, Query, Rect, TokenFilter
from repro.core.stats import SearchStats


class TestPaperExample2:
    def test_candidates_match_paper(self, figure1_objects, figure1_weighter, figure1_query):
        """Example 2: probing t1, t3, t2's lists yields candidates
        C = {o1, o2, o3, o4, o5} and the final answer {o2}."""
        f = TokenFilter(figure1_objects, figure1_weighter)
        stats = SearchStats()
        candidates = set(f.candidates(figure1_query, stats))
        assert candidates == {0, 1, 2, 3, 4}

    def test_answer(self, figure1_objects, figure1_weighter, figure1_query):
        f = TokenFilter(figure1_objects, figure1_weighter)
        assert f.search(figure1_query).answers == [1]

    def test_prefix_probes_fewer_lists(self, figure1_objects, figure1_weighter, figure1_query):
        """Section 4.2: with threshold-aware pruning only t1 and t3's
        lists are probed (t2's suffix weight is below cT)."""
        f = TokenFilter(figure1_objects, figure1_weighter)
        stats = SearchStats()
        f.candidates(figure1_query, stats)
        assert stats.lists_probed == 2


class TestBehaviour:
    def test_equals_naive(self, twitter_small, twitter_small_weighter, twitter_small_queries):
        f = TokenFilter(twitter_small, twitter_small_weighter)
        naive = NaiveSearch(twitter_small, twitter_small_weighter)
        for q in twitter_small_queries:
            assert f.search(q).answers == naive.search(q).answers

    def test_degenerate_tau_t_zero_full_scan(self, figure1_objects, figure1_weighter):
        f = TokenFilter(figure1_objects, figure1_weighter)
        q = Query(Rect(0, 0, 120, 120), frozenset({"t1"}), 0.0, 0.0)
        stats = SearchStats()
        assert len(f.candidates(q, stats)) == len(figure1_objects)

    def test_empty_token_query(self, figure1_objects, figure1_weighter):
        f = TokenFilter(figure1_objects, figure1_weighter)
        q = Query(Rect(0, 0, 120, 120), frozenset(), 0.0, 0.5)
        # Degenerate (threshold base 0): full scan keeps correctness.
        assert len(f.candidates(q, SearchStats())) == len(figure1_objects)

    def test_unknown_tokens_no_crash(self, figure1_objects, figure1_weighter):
        f = TokenFilter(figure1_objects, figure1_weighter)
        q = Query(Rect(0, 0, 120, 120), frozenset({"zzz"}), 0.1, 0.5)
        assert f.search(q).answers == []

    def test_index_size_report(self, figure1_objects, figure1_weighter):
        f = TokenFilter(figure1_objects, figure1_weighter)
        report = f.index_size()
        # One posting per (object, token) pair.
        assert report.num_postings == sum(len(o.tokens) for o in figure1_objects)
