"""Tests for the analysis utilities."""

from __future__ import annotations

import pytest

from repro import GridFilter, NaiveSearch, TokenFilter, build_method
from repro.analysis import filtering_power, index_stats
from repro.analysis.signature_stats import compare_filtering_power
from repro.core.errors import ConfigurationError
from repro.index.inverted import InvertedIndex


class TestIndexStats:
    def test_basic(self):
        index = InvertedIndex.from_postings([0] * 10 + [1], list(range(10)) + [0], [0.0] * 11)
        stats = index_stats(index)
        assert stats.num_lists == 2
        assert stats.num_postings == 11
        assert stats.max_list_length == 10
        assert stats.mean_list_length == pytest.approx(5.5)

    def test_empty_index_rejected(self):
        with pytest.raises(ConfigurationError):
            index_stats(InvertedIndex.from_postings([], [], []))

    def test_on_real_filter(self, figure1_objects, figure1_weighter):
        f = TokenFilter(figure1_objects, figure1_weighter)
        stats = index_stats(f.index)
        assert stats.num_lists == 5  # t1..t5
        assert stats.num_postings == sum(len(o.tokens) for o in figure1_objects)


class TestFilteringPower:
    def test_naive_has_no_filtering(self, figure1_objects, figure1_weighter, figure1_query):
        naive = NaiveSearch(figure1_objects, figure1_weighter)
        report = filtering_power(naive, [figure1_query])
        assert report.candidate_rate == 1.0
        assert report.answers == 1.0
        assert report.precision == pytest.approx(1 / 7)

    def test_token_filter_stronger_than_naive(
        self, figure1_objects, figure1_weighter, figure1_query
    ):
        token = TokenFilter(figure1_objects, figure1_weighter)
        report = filtering_power(token, [figure1_query])
        assert report.candidate_rate < 1.0
        assert report.precision > 1 / 7

    def test_empty_workload_rejected(self, figure1_objects, figure1_weighter):
        naive = NaiveSearch(figure1_objects, figure1_weighter)
        with pytest.raises(ConfigurationError):
            filtering_power(naive, [])

    def test_compare(self, figure1_objects, figure1_weighter, figure1_query):
        from tests.conftest import FIGURE1_SPACE

        methods = {
            "token": TokenFilter(figure1_objects, figure1_weighter),
            "grid": GridFilter(figure1_objects, figure1_weighter, granularity=4, space=FIGURE1_SPACE),
        }
        reports = compare_filtering_power(methods, [figure1_query])
        assert set(reports) == {"token", "grid"}
        # Both filters admit the one true answer.
        for report in reports.values():
            assert report.answers == 1.0

    def test_hybrid_precision_at_least_single_axis(
        self, twitter_small, twitter_small_weighter, twitter_small_queries
    ):
        methods = {
            "token": build_method(twitter_small, "token", twitter_small_weighter),
            "hybrid": build_method(
                twitter_small, "hash-hybrid", twitter_small_weighter, granularity=16
            ),
        }
        reports = compare_filtering_power(methods, list(twitter_small_queries))
        assert reports["hybrid"].candidates <= reports["token"].candidates
