"""Tests for the pluggable textual predicates extension."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro import Query, Rect, TokenWeighter, execute_query, make_corpus
from repro.core.similarity import (
    textual_cosine_similarity,
    textual_dice_similarity,
    textual_similarity,
)
from repro.extensions.predicates import (
    CosinePredicate,
    DicePredicate,
    JaccardPredicate,
    PredicateSearch,
)
from repro.exec import pipeline
from repro.exec.pipeline import BatchExecutor
from repro.exec.pipeline import run_query
from repro.geometry.rect import spatial_jaccard

from tests.strategies import corpus_and_query


def _brute_force(objects, weighter, query, predicate):
    out = []
    for obj in objects:
        if spatial_jaccard(query.region, obj.region) < query.tau_r:
            continue
        if predicate.similarity(query.tokens, obj.tokens) < query.tau_t:
            continue
        out.append(obj.oid)
    return out


class TestThresholdSoundness:
    """sim_p ≥ τ must imply the common weight reaches the derived c_p."""

    @pytest.fixture()
    def weighter(self):
        return TokenWeighter([{"a", "b"}, {"b", "c"}, {"c", "d"}, {"e"}, {"f", "g"}])

    @pytest.mark.parametrize("predicate_cls", [JaccardPredicate, DicePredicate, CosinePredicate])
    def test_soundness_on_pairs(self, weighter, predicate_cls):
        predicate = predicate_cls(weighter)
        sets = [
            frozenset(s)
            for s in [{"a"}, {"a", "b"}, {"b", "c"}, {"c", "d", "e"}, {"e", "f", "g"}, {"a", "g"}]
        ]
        for tau in (0.1, 0.3, 0.5, 0.8):
            for qa in sets:
                query = Query(Rect(0, 0, 1, 1), qa, 0.0, tau)
                c = predicate.threshold(query)
                for ob in sets:
                    if predicate.similarity(qa, ob) >= tau:
                        common = sum(predicate.element_weight(t) for t in qa & ob)
                        assert common >= c - 1e-9, (predicate.name, qa, ob, tau)


class TestPredicateSearch:
    @pytest.mark.parametrize("predicate_cls", [JaccardPredicate, DicePredicate, CosinePredicate])
    def test_equals_brute_force(
        self, twitter_small, twitter_small_weighter, twitter_small_queries, predicate_cls
    ):
        predicate = predicate_cls(twitter_small_weighter)
        engine = PredicateSearch(twitter_small, predicate, twitter_small_weighter)
        for q in twitter_small_queries:
            expected = _brute_force(twitter_small, twitter_small_weighter, q, predicate)
            answers = engine.search(q).answers
            assert answers == expected, predicate_cls.__name__
            # Columnar candidates must not leak NumPy scalars into answers.
            assert all(type(oid) is int for oid in answers)

    def test_jaccard_predicate_matches_core(self, twitter_small, twitter_small_weighter, twitter_small_queries):
        from repro import NaiveSearch

        predicate = JaccardPredicate(twitter_small_weighter)
        engine = PredicateSearch(twitter_small, predicate, twitter_small_weighter)
        naive = NaiveSearch(twitter_small, twitter_small_weighter)
        for q in twitter_small_queries:
            assert engine.search(q).answers == naive.search(q).answers

    def test_dice_admits_superset_of_jaccard(self, twitter_small, twitter_small_weighter):
        """Dice ≥ Jaccard pointwise, so at the same τ Dice answers ⊇
        Jaccard answers."""
        from repro.datasets import generate_queries

        jac = PredicateSearch(twitter_small, JaccardPredicate(twitter_small_weighter))
        dice = PredicateSearch(twitter_small, DicePredicate(twitter_small_weighter))
        for q in generate_queries(twitter_small, "small", 5, seed=5, tau_r=0.1, tau_t=0.3):
            assert set(jac.search(q).answers) <= set(dice.search(q).answers)


@pytest.mark.parametrize("tau_t", [0.3, 0.6])
@pytest.mark.parametrize("predicate_cls", [DicePredicate, CosinePredicate])
def test_every_pipeline_verifies_with_the_predicate(predicate_cls, tau_t):
    """Regression: ``search`` carried a private copy of the pipeline, so
    ``execute_query`` and everything built on it verified with the
    shared Jaccard verifier instead.  Three objects on which Jaccard
    disagrees with Dice and Cosine at both thresholds."""
    region = Rect(0, 0, 10, 10)
    corpus = make_corpus(
        [(region, {"a", "b", "c"}), (region, {"b", "c", "d"}), (region, {"a", "d"})]
    )
    weighter = TokenWeighter(obj.tokens for obj in corpus)
    predicate = predicate_cls(weighter)
    query = Query(region, frozenset({"a", "b", "c"}), 0.5, tau_t)
    expected = _brute_force(corpus, weighter, query, predicate)
    assert expected == ([0, 1, 2] if tau_t == 0.3 else [0, 1])
    assert expected != _brute_force(corpus, weighter, query, JaccardPredicate(weighter))
    engine = PredicateSearch(corpus, predicate, weighter)
    results = [
        engine.search(query),
        execute_query(engine, query),
        run_query(engine, query),
        BatchExecutor().run(engine, [query])[0],
        # Large enough for a batched pass, which this verifier must not take.
        *BatchExecutor().run(engine, [query] * pipeline.BATCH_MAX_QUERIES),
    ]
    for result in results:
        assert result.answers == expected
        assert result.stats.method == "predicate-token"
        assert result.stats.results == len(expected)


@pytest.mark.parametrize("predicate_cls", [DicePredicate, CosinePredicate])
@settings(max_examples=15, deadline=None)
@given(corpus_query=corpus_and_query())
def test_property_no_false_negatives(predicate_cls, corpus_query):
    corpus, query = corpus_query
    weighter = TokenWeighter(obj.tokens for obj in corpus)
    predicate = predicate_cls(weighter)
    engine = PredicateSearch(corpus, predicate, weighter)
    expected = _brute_force(corpus, weighter, query, predicate)
    assert engine.search(query).answers == expected


def test_similarity_functions_consistent():
    w = TokenWeighter([{"a", "b"}, {"b", "c"}, {"d"}])
    a, b = frozenset({"a", "b"}), frozenset({"b", "c"})
    assert JaccardPredicate(w).similarity(a, b) == textual_similarity(a, b, w)
    assert DicePredicate(w).similarity(a, b) == textual_dice_similarity(a, b, w)
    assert CosinePredicate(w).similarity(a, b) == textual_cosine_similarity(a, b, w)
