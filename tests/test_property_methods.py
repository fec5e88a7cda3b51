"""Property-based correctness: random corpora × random queries.

Hypothesis hunts for corner cases the fixed corpora miss — degenerate
regions, boundary-aligned rectangles, zero thresholds, empty token sets,
single-object corpora — and asserts the two framework invariants:

1. every method's answers equal the naive scan's answers;
2. every filter's candidate set contains every naive answer (candidates
   are a superset — "no false negatives", Section 3.1's key property).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro import METHOD_REGISTRY, Query, Rect, build_method, make_corpus
from repro.core.stats import SearchStats
from repro.text.weights import TokenWeighter

from tests.strategies import corpus_and_query

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

_PARAMS = {
    "grid": {"granularity": 8},
    "hash-hybrid": {"granularity": 8},
    "seal": {"mt": 6, "max_level": 4, "min_objects": 0},
    "irtree": {"max_entries": 4},
    "spatial-first": {"max_entries": 4},
}


def _methods(corpus):
    weighter = TokenWeighter(obj.tokens for obj in corpus)
    return {
        name: build_method(corpus, name, weighter, **_PARAMS.get(name, {}))
        for name in METHOD_REGISTRY
    }


@_SETTINGS
@given(corpus_and_query())
def test_every_method_matches_naive(corpus_query):
    corpus, query = corpus_query
    methods = _methods(corpus)
    expected = methods["naive"].search(query).answers
    for name, method in methods.items():
        got = method.search(query).answers
        assert got == expected, f"{name}: {got} != {expected} for {query}"


@_SETTINGS
@given(corpus_and_query())
def test_candidates_superset_of_answers(corpus_query):
    corpus, query = corpus_query
    methods = _methods(corpus)
    expected = set(methods["naive"].search(query).answers)
    for name, method in methods.items():
        candidates = set(method.candidates(query, SearchStats()))
        assert expected <= candidates, (
            f"{name} lost answers: {expected - candidates} for {query}"
        )


@pytest.mark.parametrize("name", sorted(METHOD_REGISTRY))
def test_threshold_boundary_regression(name):
    """Objects {t0} and {t0, t1, t2} on one point, a query on that point
    with {t1, …, t5} at τR = 0, τT = 0.4: object 1 sits on simT = τT, and
    the verifier's float union ``(Q + T) − I`` rounds below ``Q``.  A
    filter cutting at exactly ``τT·Q`` dropped it (``token``, ``irtree``
    and the planner returned ``[]``); every filter bound now goes through
    ``filter_threshold``, and every method keeps it."""
    corpus = make_corpus([(Rect(0, 0, 0, 0), {"t0"}), (Rect(0, 0, 0, 0), {"t0", "t1", "t2"})])
    query = Query(Rect(0, 0, 0, 0), frozenset({"t1", "t2", "t3", "t4", "t5"}), 0.0, 0.4)
    method = _methods(corpus)[name]
    assert method.search(query).answers == [1]
    assert 1 in set(method.candidates(query, SearchStats()))
