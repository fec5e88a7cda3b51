"""Tests for the engine facade and method registry."""

from __future__ import annotations

import pytest

from repro import (
    METHOD_REGISTRY,
    ConfigurationError,
    Query,
    Rect,
    SealSearch,
    build_method,
)
from repro.core.engine import accepted_params, check_params
from repro.core.method import SearchMethod


class TestRegistry:
    def test_all_methods_constructible(self, figure1_objects, figure1_weighter):
        for name in METHOD_REGISTRY:
            method = build_method(figure1_objects, name, figure1_weighter)
            assert isinstance(method, SearchMethod)

    def test_unknown_method(self, figure1_objects):
        with pytest.raises(ConfigurationError):
            build_method(figure1_objects, "quantum")

    def test_params_forwarded(self, figure1_objects, figure1_weighter):
        grid = build_method(figure1_objects, "grid", figure1_weighter, granularity=8)
        assert grid.granularity == 8
        seal = build_method(figure1_objects, "seal", figure1_weighter, mt=4, max_level=3)
        assert seal.mt == 4

    def test_accepted_params_is_the_constructors_keyword_only_set(self):
        knobs = {"granularity": 8, "mt": 4, "max_entries": 8, "prefix_pruning": False,
                 "objects": [], "weighter": None, "nonsense": 1}
        assert accepted_params("naive", knobs) == {}
        assert accepted_params("irtree", knobs) == {"max_entries": 8}
        assert accepted_params("token", knobs) == {}
        assert accepted_params("grid", knobs) == {"granularity": 8}
        assert accepted_params("seal", knobs) == {"mt": 4}
        # ``planned``: what one of its two members (token, grid) takes.
        assert set(accepted_params("planned", knobs)) == {"granularity"}
        with pytest.raises(ConfigurationError, match="unknown method 'quantum'"):
            accepted_params("quantum", knobs)

    def test_check_params_names_the_knobs_and_the_method(self):
        check_params("grid", {"granularity": 8})
        check_params("planned", {"granularity": 8})
        with pytest.raises(ConfigurationError, match="'planned' does not accept 'record_to'"):
            check_params("planned", {"granularity": 8, "record_to": None})
        with pytest.raises(ConfigurationError, match="method 'grid' does not accept 'mt', 'zz'"):
            check_params("grid", {"granularity": 8, "mt": 4, "zz": 0})
        with pytest.raises(ConfigurationError, match="method 'planned' does not accept 'max_entries'"):
            check_params("planned", {"max_entries": 8})

    @pytest.mark.parametrize("name, knob, value", [
        ("token", "prefix_pruning", False),
        ("grid", "prefix_pruning", False),
        ("planned", "prefix_pruning", False),
        ("grid", "order", "hilbert"),
        ("hash-hybrid", "order", "count_desc"),
    ])
    def test_deleted_knobs_are_refused_by_name(self, figure1_objects, figure1_weighter,
                                               name, knob, value):
        """The plain Sig-Filter (``prefix_pruning=False``) and the
        alternative cell orders (``order=``) are not built: asking for
        one is a configuration error naming the knob, not a build that
        quietly ignores it."""
        with pytest.raises(ConfigurationError, match=f"method '{name}' does not accept '{knob}'"):
            build_method(figure1_objects, name, figure1_weighter, **{knob: value})

    def test_all_methods_agree_on_figure1(
        self, figure1_objects, figure1_weighter, figure1_query
    ):
        expected = None
        for name in METHOD_REGISTRY:
            method = build_method(figure1_objects, name, figure1_weighter)
            answers = method.search(figure1_query).answers
            if expected is None:
                expected = answers
            assert answers == expected, name
        assert expected == [1]


class TestSealSearch:
    @pytest.fixture()
    def engine(self):
        return SealSearch(
            [
                (Rect(0, 0, 10, 10), {"coffee", "mocha"}),
                (Rect(2, 2, 12, 12), {"coffee", "starbucks"}),
                (Rect(50, 50, 60, 60), {"tea"}),
            ],
            method="token",
        )

    def test_search(self, engine):
        result = engine.search(Rect(1, 1, 9, 9), {"coffee", "mocha"}, tau_r=0.3, tau_t=0.3)
        assert 0 in result

    def test_search_query(self, engine):
        q = Query(Rect(1, 1, 9, 9), frozenset({"coffee", "mocha"}), 0.3, 0.3)
        assert engine.search_query(q).answers == engine.search(
            q.region, q.tokens, 0.3, 0.3
        ).answers

    def test_object_lookup(self, engine):
        assert engine.object(2).tokens == {"tea"}

    def test_similarities(self, engine):
        q = Query(Rect(0, 0, 10, 10), frozenset({"coffee", "mocha"}), 0.1, 0.1)
        sim_r, sim_t = engine.similarities(q, 0)
        assert sim_r == 1.0
        assert sim_t == 1.0

    def test_len(self, engine):
        assert len(engine) == 3

    def test_empty_data_is_an_empty_engine(self):
        engine = SealSearch([])
        assert len(engine) == 0
        assert engine.search(Rect(0, 0, 1, 1), {"a"}, tau_r=0.0, tau_t=0.0).answers == []
        assert engine.insert(Rect(0, 0, 1, 1), {"a"}) == 0
        assert engine.search(Rect(0, 0, 1, 1), {"a"}, tau_r=0.5, tau_t=0.5).answers == [0]

    def test_default_method_is_seal(self):
        engine = SealSearch([(Rect(0, 0, 1, 1), {"a"})])
        assert [method.name for method in engine.segment_methods()] == ["seal"]

    def test_result_contains_and_len(self, engine):
        result = engine.search(Rect(1, 1, 9, 9), {"coffee"}, tau_r=0.1, tau_t=0.1)
        assert len(result) >= 1
        assert 0 in result


class TestStats:
    def test_timing_populated(self, figure1_objects, figure1_weighter, figure1_query):
        method = build_method(figure1_objects, "token", figure1_weighter)
        result = method.search(figure1_query)
        stats = result.stats
        assert stats.filter_seconds >= 0.0
        assert stats.verify_seconds >= 0.0
        assert stats.total_seconds == stats.filter_seconds + stats.verify_seconds
        assert stats.candidates >= stats.results == len(result.answers)

    def test_merge(self):
        from repro.core.stats import SearchStats

        a = SearchStats(lists_probed=1, entries_retrieved=2, candidates=3, results=1,
                        filter_seconds=0.5, verify_seconds=0.25)
        b = SearchStats(lists_probed=10, entries_retrieved=20, candidates=30, results=2,
                        filter_seconds=1.0, verify_seconds=0.75)
        a.merge(b)
        assert a.lists_probed == 11
        assert a.entries_retrieved == 22
        assert a.candidates == 33
        assert a.results == 3
        assert a.total_seconds == pytest.approx(2.5)
