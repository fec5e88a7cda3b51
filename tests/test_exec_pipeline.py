"""Tests for the execution pipeline and the engine shapes it accepts."""

from __future__ import annotations

import pytest

from repro import (
    METHOD_REGISTRY,
    BatchExecutor,
    QueryService,
    SealSearch,
    SegmentedSealSearch,
    build_method,
    execute_query,
)
from repro.exec.pipeline import run_query


class TestExecuteQuery:
    def test_matches_method_search(self, figure1_objects, figure1_weighter, figure1_query):
        for name in METHOD_REGISTRY:
            method = build_method(figure1_objects, name, figure1_weighter)
            via_pipeline = execute_query(method, figure1_query)
            via_search = method.search(figure1_query)
            assert via_pipeline.answers == via_search.answers == [1], name

    def test_stats_filled(self, figure1_objects, figure1_weighter, figure1_query):
        method = build_method(figure1_objects, "token", figure1_weighter)
        result = execute_query(method, figure1_query)
        stats = result.stats
        assert stats.candidates >= stats.results == len(result.answers)
        assert stats.filter_seconds >= 0.0
        assert stats.verify_seconds >= 0.0

    def test_answers_sorted(self, figure1_objects, figure1_weighter):
        from repro import Query, Rect

        method = build_method(figure1_objects, "naive", figure1_weighter)
        query = Query(Rect(0, 0, 120, 120), frozenset(), 0.0, 0.0)
        result = execute_query(method, query)
        assert result.answers == sorted(result.answers)
        assert result.answers == list(range(len(figure1_objects)))


class _OnlySearch:
    """An engine that is nothing but ``search(query)``."""

    def __init__(self, method):
        self.search = method.search


class _OnlySearchQuery:
    def __init__(self, method):
        self.search_query = method.search


class _CountingVerifier:
    """A verifier wrapper exposing only ``verify`` — no ``corpus``, no
    ``_token_totals`` — like the perf ledger's traced one."""

    def __init__(self, verifier):
        self._verifier = verifier
        self.calls = 0

    def verify(self, query, candidates, stats=None):
        self.calls += 1
        return self._verifier.verify(query, candidates, stats)


class _OnlySteps:
    """The two framework steps and nothing else."""

    name = "duck"

    def __init__(self, method):
        self.candidates = method.candidates
        self.verifier = _CountingVerifier(method.verifier)


class _StepsAndSearch(_OnlySteps):
    """What ``QueryService`` is handed by the ledger's ``TracedPlanner``."""

    def search(self, query):
        return execute_query(self, query)


class TestEngineShapes:
    """``run_query`` is the one place that tells engine shapes apart."""

    @pytest.fixture()
    def workload(self, twitter_small_queries):
        # Large regions + vacuous thresholds push candidate sets past the
        # verifier's vector cut; the generated ones stay below it.
        wide = [q.with_thresholds(tau_r=0.0, tau_t=0.0) for q in twitter_small_queries[:3]]
        return list(twitter_small_queries) + wide

    @pytest.fixture()
    def method(self, twitter_small, twitter_small_weighter):
        return build_method(twitter_small, "token", twitter_small_weighter)

    @pytest.fixture()
    def expected(self, twitter_small, twitter_small_weighter, workload):
        naive = build_method(twitter_small, "naive", twitter_small_weighter)
        return [naive.search(q).answers for q in workload]

    @pytest.mark.parametrize(
        "shape", [_OnlySearch, _OnlySearchQuery, _OnlySteps, _StepsAndSearch, lambda m: m]
    )
    def test_every_shape_answers_like_naive(self, shape, method, workload, expected):
        engine = shape(method)
        assert [run_query(engine, q).answers for q in workload] == expected
        assert [r.answers for r in BatchExecutor().run(engine, workload)] == expected

    @pytest.mark.parametrize("facade", [SealSearch, SegmentedSealSearch])
    def test_facade_goes_through_search_query(self, facade, twitter_small, workload, expected):
        """Singles through ``search_query``; batches through the facade's
        own ``search_batch``, which ``BatchExecutor`` probes first."""
        pairs = [(obj.region, obj.tokens) for obj in twitter_small]
        engine = facade(pairs, method="token")
        assert [run_query(engine, q).answers for q in workload] == expected
        assert [r.answers for r in engine.search_batch(workload)] == expected
        assert [r.answers for r in BatchExecutor().run(engine, workload)] == expected

    @pytest.mark.parametrize("shape", [_OnlySearch, _OnlySteps, _StepsAndSearch])
    def test_duck_typed_engine_through_the_service(self, shape, method, workload, expected):
        """Regression: an engine the service accepted for singles crashed
        ``query_batch`` with ``'_TracedVerifier' object has no attribute
        'corpus'`` — the batch path reached into the verifier's fields."""
        engine = shape(method)
        with QueryService(engine, workers=2, enable_cache=False) as service:
            assert [service.query(q).answers for q in workload] == expected
            assert [r.answers for r in service.query_batch(workload)] == expected
        assert [r.answers for r in BatchExecutor().run(engine, workload)] == expected
        if hasattr(engine, "verifier"):
            assert engine.verifier.calls == 3 * len(workload)


class TestUniformRegistryConstruction:
    """The satellite fix: no per-name special cases in build_method."""

    def test_keyword_params_reach_every_filter(self, figure1_objects, figure1_weighter):
        grid = build_method(figure1_objects, "grid", figure1_weighter, granularity=8)
        assert grid.granularity == 8
        hybrid = build_method(
            figure1_objects, "hash-hybrid", figure1_weighter, granularity=8, num_buckets=64
        )
        assert hybrid.granularity == 8 and hybrid.num_buckets == 64
        seal = build_method(figure1_objects, "seal", figure1_weighter, mt=4, max_level=3)
        assert seal.mt == 4

    def test_positional_knobs_rejected(self, figure1_objects, figure1_weighter):
        from repro import GridFilter, HierarchicalFilter, HybridFilter

        with pytest.raises(TypeError):
            GridFilter(figure1_objects, 8, figure1_weighter)
        with pytest.raises(TypeError):
            HybridFilter(figure1_objects, 8, figure1_weighter)
        with pytest.raises(TypeError):
            HierarchicalFilter(figure1_objects, 4, 3, figure1_weighter)
