"""Integration: every method returns exactly the naive answer set.

This is the library's central correctness claim (the filters are lossless
under Definition 3), exercised across both dataset families, both
workload shapes, and the paper's threshold grid.
"""

from __future__ import annotations

import pytest

from repro import METHOD_REGISTRY, NaiveSearch, TokenWeighter, build_method
from repro.datasets import generate_queries, generate_usa

METHOD_PARAMS = {
    "grid": {"granularity": 16},
    "hash-hybrid": {"granularity": 16, "num_buckets": 512},
    "seal": {"mt": 8, "max_level": 6, "min_objects": 2},
    "irtree": {"max_entries": 8},
}

THRESHOLD_GRID = [(0.1, 0.1), (0.1, 0.5), (0.5, 0.1), (0.4, 0.4)]


@pytest.fixture(scope="module")
def twitter_methods(twitter_small, twitter_small_weighter):
    return {
        name: build_method(
            twitter_small, name, twitter_small_weighter, **METHOD_PARAMS.get(name, {})
        )
        for name in METHOD_REGISTRY
    }


@pytest.mark.parametrize("kind", ["large", "small"])
@pytest.mark.parametrize("tau_r,tau_t", THRESHOLD_GRID)
def test_all_methods_equal_naive_twitter(twitter_small, twitter_methods, kind, tau_r, tau_t):
    queries = generate_queries(
        twitter_small, kind, num_queries=6, seed=17, tau_r=tau_r, tau_t=tau_t
    )
    naive = twitter_methods["naive"]
    for q in queries:
        expected = naive.search(q).answers
        for name, method in twitter_methods.items():
            assert method.search(q).answers == expected, (name, kind, tau_r, tau_t)


@pytest.mark.parametrize("tau_r,tau_t", [(0.1, 0.1), (0.4, 0.4)])
def test_all_methods_equal_naive_usa(usa_small, tau_r, tau_t):
    weighter = TokenWeighter(o.tokens for o in usa_small)
    queries = generate_queries(usa_small, "small", num_queries=5, seed=23, tau_r=tau_r, tau_t=tau_t)
    methods = {
        name: build_method(usa_small, name, weighter, **METHOD_PARAMS.get(name, {}))
        for name in METHOD_REGISTRY
    }
    naive = methods["naive"]
    for q in queries:
        expected = naive.search(q).answers
        for name, method in methods.items():
            assert method.search(q).answers == expected, (name, tau_r, tau_t)


def test_candidate_sets_ordered_by_filter_strength(
    twitter_small, twitter_small_weighter, twitter_methods
):
    """Per-query candidate sets should reflect the paper's story: exact
    hybrid filtering (token ∧ grid evidence, no bucket collisions) is a
    subset of *both* single-axis filters it combines."""
    from repro.core.stats import SearchStats

    queries = generate_queries(
        twitter_small, "small", num_queries=10, seed=29, tau_r=0.4, tau_t=0.4
    )
    exact_hybrid = build_method(
        twitter_small, "hash-hybrid", twitter_small_weighter, granularity=16
    )
    for q in queries:
        c_hybrid = set(exact_hybrid.candidates(q, SearchStats()))
        c_token = set(twitter_methods["token"].candidates(q, SearchStats()))
        c_grid = set(twitter_methods["grid"].candidates(q, SearchStats()))
        assert c_hybrid <= c_token
        assert c_hybrid <= c_grid
