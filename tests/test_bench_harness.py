"""Tests for the benchmark harness (timing, sweeps, tables)."""

from __future__ import annotations

import pytest

from repro import ConfigurationError, GridFilter, NaiveSearch, TokenFilter, build_method
from repro.bench import format_series_table, format_table, measure_workload, sweep
from repro.bench.harness import WorkloadMeasurement


class TestMeasureWorkload:
    def test_basic(self, figure1_objects, figure1_weighter, figure1_query):
        method = NaiveSearch(figure1_objects, figure1_weighter)
        m = measure_workload(method, [figure1_query] * 3)
        assert m.queries == 3
        assert m.results == 1.0
        assert m.candidates == len(figure1_objects)
        assert m.elapsed_ms >= 0.0
        assert m.elapsed_ms == pytest.approx(m.filter_ms + m.verify_ms, rel=1e-6)

    def test_empty_workload_rejected(self, figure1_objects, figure1_weighter):
        method = NaiveSearch(figure1_objects, figure1_weighter)
        with pytest.raises(ConfigurationError):
            measure_workload(method, [])


class TestFilteringPower:
    """A filter's selectivity, read off the workload summary: candidates
    per query, and answers per candidate (1.0 is a perfect filter)."""

    def test_naive_has_no_filtering(self, figure1_objects, figure1_weighter, figure1_query):
        m = measure_workload(NaiveSearch(figure1_objects, figure1_weighter), [figure1_query])
        assert m.candidates == len(figure1_objects) == 7
        assert m.results / m.candidates == pytest.approx(1 / 7)

    def test_token_filter_stronger_than_naive(
        self, figure1_objects, figure1_weighter, figure1_query
    ):
        m = measure_workload(TokenFilter(figure1_objects, figure1_weighter), [figure1_query])
        assert m.candidates < len(figure1_objects)
        assert m.results / m.candidates > 1 / 7

    def test_single_axis_filters_admit_the_answer(
        self, figure1_objects, figure1_weighter, figure1_query
    ):
        from tests.conftest import FIGURE1_SPACE

        for method in (
            TokenFilter(figure1_objects, figure1_weighter),
            GridFilter(figure1_objects, figure1_weighter, granularity=4, space=FIGURE1_SPACE),
        ):
            assert measure_workload(method, [figure1_query]).results == 1.0

    def test_hybrid_candidates_at_most_single_axis(
        self, twitter_small, twitter_small_weighter, twitter_small_queries
    ):
        queries = list(twitter_small_queries)
        token = build_method(twitter_small, "token", twitter_small_weighter)
        hybrid = build_method(twitter_small, "hash-hybrid", twitter_small_weighter, granularity=16)
        assert measure_workload(hybrid, queries).candidates <= measure_workload(
            token, queries
        ).candidates

    def test_counts_are_per_query_means(self, figure1_objects, figure1_weighter, figure1_query):
        method = TokenFilter(figure1_objects, figure1_weighter)
        single = measure_workload(method, [figure1_query])
        double = measure_workload(method, [figure1_query, figure1_query])
        assert single.candidates == double.candidates
        assert single.lists_probed == double.lists_probed


class TestEngineShapes:
    """``measure_workload`` and ``sweep`` take the engine as queried."""

    COUNTS = ("queries", "candidates", "entries_retrieved", "lists_probed", "results")

    def test_seal_search_counts_as_its_registry_method(self, twitter_small, twitter_small_queries):
        from repro import SealSearch

        queries = list(twitter_small_queries)
        pairs = [(obj.region, obj.tokens) for obj in twitter_small]
        engine = measure_workload(SealSearch(pairs, "token"), queries)
        method = measure_workload(build_method(twitter_small, "token"), queries)
        assert [getattr(engine, name) for name in self.COUNTS] == [
            getattr(method, name) for name in self.COUNTS
        ]
        assert engine.candidates > 0

    def test_sweep_takes_seal_search(self, figure1_objects, figure1_query):
        from repro import SealSearch

        pairs = [(obj.region, obj.tokens) for obj in figure1_objects]
        out = sweep(SealSearch(pairs, "token"), [figure1_query], [0.1, 0.5], "tau_t")
        assert out[0.1].results >= out[0.5].results


class TestSweep:
    def test_tau_r_axis(self, figure1_objects, figure1_weighter, figure1_query):
        method = NaiveSearch(figure1_objects, figure1_weighter)
        out = sweep(method, [figure1_query], [0.1, 0.5], "tau_r")
        assert set(out) == {0.1, 0.5}
        # Lower spatial threshold admits at least as many answers.
        assert out[0.1].results >= out[0.5].results

    def test_tau_t_axis_keeps_other_threshold(self, figure1_objects, figure1_weighter, figure1_query):
        method = NaiveSearch(figure1_objects, figure1_weighter)
        out = sweep(method, [figure1_query], [0.2], "tau_t")
        assert out[0.2].results >= 0

    def test_bad_axis(self, figure1_objects, figure1_weighter, figure1_query):
        method = NaiveSearch(figure1_objects, figure1_weighter)
        with pytest.raises(ConfigurationError):
            sweep(method, [figure1_query], [0.1], "tau_x")


class TestFormatting:
    def test_format_table_alignment(self):
        text = format_table("T", "x", [1, 2], {"row": [3.0, 4.5]})
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "row" in lines[-1]
        assert "4.50" in lines[-1]

    def test_format_large_and_small_floats(self):
        text = format_table("T", "x", [1], {"big": [1234.5], "small": [0.0042], "zero": [0.0]})
        assert "1234" in text and "0.004" in text

    def test_format_series_table(self):
        m1 = WorkloadMeasurement(1, 5.0, 4.0, 1.0, 10.0, 20.0, 2.0, 1.0)
        m2 = WorkloadMeasurement(1, 2.0, 1.0, 1.0, 6.0, 9.0, 1.0, 1.0)
        series = {"MethodA": {0.1: m1, 0.5: m2}}
        text = format_series_table("Fig X", "tau_r", series)
        assert "MethodA" in text
        assert "5.00" in text and "2.00" in text

    def test_format_series_table_other_metric(self):
        m1 = WorkloadMeasurement(1, 5.0, 4.0, 1.0, 10.0, 20.0, 2.0, 1.0)
        text = format_series_table("Fig X", "tau_r", {"A": {0.1: m1}}, metric="candidates")
        assert "10.0" in text or "10.00" in text

    def test_missing_column_cells_blank(self):
        m1 = WorkloadMeasurement(1, 5.0, 4.0, 1.0, 10.0, 20.0, 2.0, 1.0)
        series = {"A": {0.1: m1}, "B": {0.5: m1}}
        text = format_series_table("Fig X", "tau", series)
        assert "A" in text and "B" in text
