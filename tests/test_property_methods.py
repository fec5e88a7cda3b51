"""Property-based correctness: random corpora × random queries.

Hypothesis hunts for corner cases the fixed corpora miss — degenerate
regions, boundary-aligned rectangles, zero thresholds, empty token sets,
single-object corpora — and asserts the two framework invariants:

1. every method's answers equal the naive scan's answers;
2. every filter's candidate set contains every naive answer (candidates
   are a superset — "no false negatives", Section 3.1's key property).

A third property constructs the threshold boundaries instead of hoping
to draw them (:func:`tests.strategies.boundary_cases`): τ on an object's
exact simR / simT, or one ulp either side.  A fourth puts the filter's
own ``c_T`` / ``c_R`` on a posting's Lemma-3 bound, or one ulp either
side, for every signature filter and both of the planner's members,
query by query and in a batch.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro import METHOD_REGISTRY, BatchExecutor, Query, Rect, build_method, make_corpus
from repro.core.similarity import FILTER_SLACK, filter_threshold
from repro.core.stats import SearchStats
from repro.exec.pipeline import BATCH_MIN_QUERIES
from repro.filters.base import FULL_SCAN
from repro.text.weights import TokenWeighter

from tests.hss_testlib import frontiers
from tests.strategies import boundary_cases, corpora, corpus_and_query, rects, token_sets

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
    assert any(cell[0] > 0 for grids in frontiers(methods["seal"]).values()
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


# ----------------------------------------------------------------------
# Thresholds on a posting's Lemma-3 bound
# ----------------------------------------------------------------------

_BOUND_SETTINGS = settings(
    _SETTINGS,
    max_examples=15,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large,
                           HealthCheck.filter_too_much],
)

#: ``c`` one ulp below a bound, on it, or one ulp above it.
_STEPS = {"below": -math.inf, "on": None, "above": math.inf}

#: ``(member, axis)``: the threshold that lands on a bound — ``c_T`` on
#: ``"t"``, ``c_R`` on ``"r"`` — for every signature filter and both
#: branches of the planner's rule.
_BOUND_CASES = [("token", "t"), ("grid", "r"), ("hash-hybrid", "r"), ("hash-hybrid", "t"),
                ("seal", "r"), ("seal", "t"), ("planned", "r"), ("planned", "t")]


def _tau_on(c: float, total: float):
    """A ``τ`` with ``filter_threshold(τ, total) == c`` to the bit, or
    ``None`` when the product skips ``c`` (its step can exceed an ulp)."""
    tau = c / (total * (1.0 - FILTER_SLACK))
    for _ in range(8):
        got = filter_threshold(tau, total)
        if got == c:
            return tau
        tau = math.nextafter(tau, math.inf if got < c else -math.inf)
    return None


@st.composite
def _bound_query(draw, name, axis, step):
    """A corpus, the member ``name`` built over it, the index that
    filters the query, ``c`` and the query, whose ``c_T`` (axis ``"t"``)
    or ``c_R`` (``"r"``) is ``c``: to the bit, one ulp below, on, or one
    ulp above the bound of one of an object's postings.

    The query is that object's region and tokens, or covers both, so
    the bound is at most the query's total and ``τ ≤ 1``.  As the object
    itself, the query's own Lemma-2 suffix sums are the object's bounds,
    so with ``c`` on a bound the list holding it is probed and the cut
    falls exactly on that posting.  The other threshold is drawn
    positive, or zero where the planner's rule needs ``c_T = 0`` to
    route to ``grid``."""
    corpus = draw(corpora(min_size=2, max_size=10))
    weighter = TokenWeighter(obj.tokens for obj in corpus)
    method = build_method(corpus, name, weighter, **_PARAMS.get(name, {}))
    target = corpus[draw(st.integers(0, len(corpus) - 1))]
    region, tokens = target.region, target.tokens
    if draw(st.booleans()):
        region, tokens = region.union(draw(rects())), tokens | draw(token_sets)
    member = method
    if name == "planned":
        member = method.methods["token" if axis == "t" else "grid"]
    index = member.index
    bounds = index.t_bounds if axis == "t" and index.t_bounds is not None else -index.neg_bounds
    bound = draw(st.sampled_from(sorted(set(bounds[index.oids == target.oid].tolist()))))
    c = bound if _STEPS[step] is None else math.nextafter(bound, _STEPS[step])
    total = weighter.total_weight(tokens) if axis == "t" else region.area
    tau = _tau_on(c, total) if c > 0.0 and total > 0.0 else None
    assume(tau is not None and tau <= 1.0)
    other = 0.0 if (name, axis) == ("planned", "r") else draw(st.sampled_from([0.1, 0.25, 0.5]))
    tau_r, tau_t = (other, tau) if axis == "t" else (tau, other)
    query = Query(region, frozenset(tokens), tau_r, tau_t)
    # A hybrid scans everything when the other axis is vacuous (say,
    # every query token is in every object, so c_T = 0).
    assume(member.probes(query) is not FULL_SCAN)
    return corpus, method, member, c, query


def _cut_by_brute_force(index, probes):
    """What the probes' cut keeps, posting by posting, with no
    ``searchsorted``: the sorted oids of the probed lists' postings whose
    bound(s) reach the threshold(s), and how many postings the primary
    bound alone keeps (``entries_retrieved``)."""
    codes, bound, t_bound = probes
    kept = np.isin(np.repeat(index.codes, np.diff(index.offsets)), codes)
    kept &= -index.neg_bounds >= bound
    retrieved = int(kept.sum())
    if t_bound is not None:
        kept &= index.t_bounds >= t_bound
    return sorted(set(index.oids[kept].tolist())), retrieved


@pytest.mark.parametrize("step", sorted(_STEPS))
@pytest.mark.parametrize("name, axis", _BOUND_CASES)
@_BOUND_SETTINGS
@given(data=st.data())
def test_a_threshold_on_a_posting_bound_matches_naive(name, axis, step, data):
    """Where ``c`` meets a Lemma-3 bound, ``searchsorted`` keeps the
    posting on the bound and an ulp below it, and drops it an ulp
    above: the filter's candidates and ``entries_retrieved`` are the
    brute-force cut of the lists it probes, at exactly the ``c``
    constructed, and its answers are the naive scan's."""
    corpus, method, member, c, query = data.draw(_bound_query(name, axis, step))
    probes = member.probes(query)
    _codes, bound, t_bound = probes
    assert (t_bound if axis == "t" and t_bound is not None else bound) == c
    stats = SearchStats()
    candidates = sorted(int(oid) for oid in member.candidates(query, stats))
    assert (candidates, stats.entries_retrieved) == _cut_by_brute_force(member.index, probes)
    expected = build_method(corpus, "naive", method.weighter).search(query).answers
    assert method.search(query).answers == expected


@pytest.mark.parametrize("step", sorted(_STEPS))
@pytest.mark.parametrize("name, axis", [("token", "t"), ("grid", "r"), ("planned", "r"),
                                        ("planned", "t")])
@_BOUND_SETTINGS
@given(data=st.data())
def test_a_batch_cut_on_a_posting_bound_matches_naive(name, axis, step, data):
    """The batch filter step (``union_heads_batch``) cuts each list with
    its own ``searchsorted``: each query of a batch of boundary queries
    gets the brute-force cut's candidate and retrieval counts and the
    naive scan's answers."""
    corpus, method, member, _c, query = data.draw(_bound_query(name, axis, step))
    candidates, retrieved = _cut_by_brute_force(member.index, member.probes(query))
    expected = build_method(corpus, "naive", method.weighter).search(query).answers
    for result in BatchExecutor().run(method, [query] * BATCH_MIN_QUERIES):
        assert result.answers == expected
        assert (result.stats.candidates, result.stats.entries_retrieved) == (
            len(candidates), retrieved,
        )
