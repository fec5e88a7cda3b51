"""Property-based correctness: random corpora × random queries.

Hypothesis hunts for corner cases the fixed corpora miss — degenerate
regions, boundary-aligned rectangles, zero thresholds, empty token sets,
single-object corpora — and asserts the two framework invariants:

1. every method's answers equal the naive scan's answers;
2. every filter's candidate set contains every naive answer (candidates
   are a superset — "no false negatives", Section 3.1's key property).

A third property constructs the threshold boundaries instead of hoping
to draw them (:func:`tests.strategies.boundary_cases`): τ on an object's
exact simR / simT, or one ulp either side.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings

from repro import METHOD_REGISTRY, Query, Rect, build_method, make_corpus
from repro.core.stats import SearchStats
from repro.text.weights import TokenWeighter

from tests.strategies import boundary_cases, corpus_and_query

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


#: What the strategy found against a filter bound with no slack
#: (``filter_threshold`` returning exactly ``τ·total``): ``token`` lost
#: object 2, which sits on simT = τT.
_NO_SLACK_FINDING = (
    make_corpus([(Rect(0, 0, 0, 0), {"t0"}), (Rect(0, 0, 0, 0), {"t0"}),
                 (Rect(0, 0, 0, 0), {"t1"})]),
    Query(Rect(0, 0, 0, 0), frozenset({"t0", "t1"}), 1.0, 0.7304227103091853),
)


@settings(_SETTINGS, max_examples=60)
@given(boundary_cases())
@example(case=_NO_SLACK_FINDING)
def test_constructed_threshold_boundaries_match_naive(case):
    """Every registry member, plus a bucketed ``hash-hybrid`` (colliding
    bucket codes), answers a boundary query as the naive scan does; the
    ``seal`` built here always refines below the root, so its packed
    codes span more than one grid level."""
    corpus, query = case
    methods = _methods(corpus)
    methods["hash-hybrid-bucketed"] = build_method(
        corpus, "hash-hybrid", methods["naive"].weighter, granularity=8, num_buckets=7
    )
    assert any(cell[0] > 0 for grids in methods["seal"].token_grids.values()
               for cell in grids.cells)
    expected = methods["naive"].search(query).answers
    for name, method in methods.items():
        assert method.search(query).answers == expected, f"{name} at {query}"


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
