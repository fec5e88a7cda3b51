"""One ``probes()`` per filter, replayed against the parent's work counts.

``candidates`` reads a signature filter's ``probes(query)`` (see :mod:`repro.filters.base`).  These tests pin:

* a golden table whose answers and per-filter work were written by an
  earlier commit (``tests/fixtures/make_planner_golden.py``) replays —
  every filter built with ``build_method`` and run directly, and the
  planner's member answering with that member's work;
* per filter × query shape, ``probes`` run through the one probe loop is
  ``candidates``, statistics included;
* ``plan()`` enumerates no probes, and a query's tokens are sorted and
  summed once per search, verification included (none at ``τT = 0``),
  flat, segmented and batched;
* ``compile_query``'s prefix and thresholds are the references', to the
  bit;
* every member, and the planner, ≡ naive on the four query regimes.
"""

from __future__ import annotations

import inspect
import json
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro import BatchExecutor, Query, Rect, SegmentedSealSearch, build_method
from repro.core.stats import SearchStats
from repro.datasets import generate_queries, generate_twitter
from repro.exec import pipeline
from repro.exec.planner import PlannedSealSearch, rule
from repro.filters.base import FULL_SCAN
from repro.filters.grid_filter import GridFilter
from repro.filters.hierarchical_filter import HierarchicalFilter
from repro.filters.hybrid_filter import HybridFilter
from repro.filters.token_filter import TokenFilter
from repro.service.protocol import query_from_wire
from repro.signatures.query import compile_query
from repro.text.weights import TokenWeighter

from tests.fixtures.make_planner_golden import FILTERS, build_filters

GOLDEN = json.loads(
    Path(__file__).with_name("fixtures").joinpath("planner_golden.json").read_text("utf-8")
)
COUNTERS = ("lists_probed", "entries_retrieved", "entries_matched")


@pytest.fixture(scope="module")
def corpus():
    return generate_twitter(**{**GOLDEN["corpus"], "space": Rect(*GOLDEN["corpus"]["space"])})


@pytest.fixture(scope="module")
def filters(corpus):
    """The four filters, built directly, plus a bucketed hybrid
    (colliding keys)."""
    built = build_filters(corpus)
    bucketed = build_method(
        corpus, "hash-hybrid", built["token"].weighter, granularity=64, num_buckets=97
    )
    return {**built, "hash-hybrid-bucketed": bucketed}


@pytest.fixture(scope="module")
def planner(corpus, filters):
    return PlannedSealSearch(corpus, filters["token"].weighter,
                             granularity=GOLDEN["knobs"]["granularity"])


@pytest.fixture(scope="module")
def golden_queries():
    return [query_from_wire(row["query"]) for row in GOLDEN["rows"]]


# ----------------------------------------------------------------------
# (a) the reference commit's behaviour, replayed
# ----------------------------------------------------------------------


def test_golden_table_replays(filters, planner):
    for row in GOLDEN["rows"]:
        query = query_from_wire(row["query"])
        for name in FILTERS:
            direct = filters[name].search(query)
            assert direct.answers == row["answers"], (name, row["query"])
            for counter in COUNTERS + ("candidates",):
                assert getattr(direct.stats, counter) == row["members"][name][counter], (
                    name, counter, row["query"],
                )
        result = planner.search(query)
        chosen = rule(query)
        assert result.stats.method == f"planned:{chosen}"
        assert result.answers == row["answers"]
        for counter in COUNTERS + ("candidates",):
            assert getattr(result.stats, counter) == row["members"][chosen][counter]


# ----------------------------------------------------------------------
# (b) probes() through the one loop ≡ candidates ≡ the stats it reports
# ----------------------------------------------------------------------


def _shapes(corpus) -> dict:
    space = Rect(*GOLDEN["corpus"]["space"])
    large = query_from_wire(GOLDEN["rows"][0]["query"])
    loose = query_from_wire(GOLDEN["rows"][-1]["query"])
    known = sorted(corpus[0].tokens)
    corner = Rect(space.x2 - 5.0, space.y2 - 5.0, space.x2 + 400.0, space.y2 + 400.0)
    return {
        "normal": large,
        "normal-loose": loose,
        "degenerate-textual": large.with_thresholds(tau_r=0.3, tau_t=0.0),
        "degenerate-spatial": large.with_thresholds(tau_r=0.0, tau_t=0.3),
        "unknown-token": Query(corpus[0].region, frozenset(known + ["no-such-token"]), 0.2, 0.2),
        "only-unknown-tokens": Query(corpus[0].region, frozenset({"nope", "nada"}), 0.2, 0.2),
        # Almost all of the region lies outside the indexed space: the
        # cell weights cannot reach c_R, so the spatial prefix is empty.
        "empty-prefix": Query(corner, frozenset(known), 0.9, 0.2),
    }


@pytest.mark.parametrize("name", FILTERS + ("hash-hybrid-bucketed",))
def test_probes_through_the_loop_is_candidates(filters, corpus, golden_queries, name):
    method = filters[name]
    seen_full_scan = seen_probes = False
    shapes = {**_shapes(corpus), **{f"golden-{i}": q for i, q in enumerate(golden_queries)}}
    for shape, query in shapes.items():
        probes = method.probes(query)
        stats = SearchStats()
        got = method.candidates(query, stats)
        if probes is FULL_SCAN:
            seen_full_scan = True
            assert got == method.all_oids(), shape
            assert [getattr(stats, c) for c in COUNTERS] == [0, 0, 0], shape
            continue
        seen_probes = True
        elements, bound, t_bound = probes
        assert len(set(elements)) == len(elements), shape
        looped = SearchStats()
        via_loop = method.index.union_heads(elements, bound, t_bound, looped)
        assert sorted(int(oid) for oid in via_loop) == sorted(int(oid) for oid in got), shape
        for counter in COUNTERS:
            assert getattr(looped, counter) == getattr(stats, counter), (shape, counter)
        if t_bound is None:
            # A single-bound probe of a missing list still counts.
            assert stats.lists_probed == len(elements), shape
            assert stats.entries_matched == stats.entries_retrieved, shape
        else:
            # A dual-bound probe of a missing list does not.
            present = sum(element in method.index for element in elements)
            assert stats.lists_probed == present, shape
        if shape == "empty-prefix" and name != "token":
            assert elements == [] and len(got) == 0
        if shape == "unknown-token" and name == "token":
            # The unseen token keeps a code of its own outside the
            # directory: one more single-bound probe, as before codes.
            unseen = [code for code in elements if code not in method.index]
            assert len(unseen) == 1 and unseen[0] < 0
        if shape == "only-unknown-tokens" and name == "token":
            assert sorted(elements) == [-2, -1] and stats.lists_probed == 2
    assert seen_full_scan and seen_probes


@pytest.mark.parametrize("name", FILTERS + ("hash-hybrid-bucketed",))
def test_probes_name_lists_by_plain_int_codes(filters, golden_queries, name):
    """The directory is an int-keyed dict: probe codes are Python ints
    (a NumPy scalar would hash alike but look up slower), and every code
    the directory holds is an int64 of the index's code column."""
    method = filters[name]
    seen = 0
    for query in golden_queries:
        probes = method.probes(query)
        if probes is FULL_SCAN:
            continue
        codes = probes[0]
        assert all(type(code) is int for code in codes)
        seen += sum(code in method.index for code in codes)
    assert seen and method.index.codes.dtype == np.int64


def test_probes_take_the_query_alone():
    """Every filter derives what it probes from the query; nothing is
    handed in from outside."""
    for cls in (GridFilter, TokenFilter, HybridFilter, HierarchicalFilter):
        assert list(inspect.signature(cls.probes).parameters) == ["self", "query"]
        assert list(inspect.signature(cls.candidates).parameters)[1:] == ["query", "stats"]


def test_plan_enumerates_no_probes(planner, corpus, golden_queries):
    """``plan()`` calls no filter's ``probes``: it builds no cell
    signature, walks no ``G_t`` and derives no token prefix."""
    refuse = mock.Mock(side_effect=AssertionError("plan() enumerated probes"))
    with mock.patch.object(GridFilter, "probes", refuse), mock.patch.object(
        TokenFilter, "probes", refuse
    ), mock.patch.object(HybridFilter, "probes", refuse), mock.patch.object(
        HierarchicalFilter, "probes", refuse
    ):
        for query in list(_shapes(corpus).values()) + golden_queries:
            assert planner.plan(query) == rule(query)
    assert not refuse.called


def _counting(cls, attribute: str, calls: list):
    """Patch ``cls.attribute`` to log its first argument and run."""
    real = getattr(cls, attribute)

    def counted(self, first, *rest):
        calls.append(first)
        return real(self, first, *rest)

    return mock.patch.object(cls, attribute, counted)


@pytest.fixture(scope="module")
def segmented(corpus):
    """A segmented planned engine over the same objects: a base segment,
    two sealed segments and a non-empty write buffer."""
    base = len(corpus) - 150
    engine = SegmentedSealSearch(
        [(obj.region, obj.tokens) for obj in corpus[:base]], "planned",
        buffer_capacity=64, granularity=GOLDEN["knobs"]["granularity"],
    )
    for obj in corpus[base:]:
        engine.insert(obj.region, obj.tokens)
    assert engine.num_segments == 3 and engine.pending > 0
    return engine


def test_a_search_sorts_and_sums_the_query_tokens_at_most_once_verification_included(
    planner, segmented, corpus, golden_queries
):
    """A query's tokens are sorted once per search, filter and
    verification together, ``total_weight`` runs at most once, and
    neither runs at ``τT = 0``: flat, across a segmented engine's four
    sources, and in a batch."""
    queries = list(_shapes(corpus).values()) + golden_queries
    engines = {"flat": planner.search, "segmented": segmented.search_query}
    for search in engines.values():
        for query in queries:
            search(query)  # build what the verifiers build on first use
    sorts, sums = [], []
    with _counting(TokenWeighter, "sort_tokens", sorts), _counting(
        TokenWeighter, "total_weight", sums
    ):
        for name, search in engines.items():
            for query in queries:
                del sorts[:], sums[:]
                search(query)
                once = [query.tokens] if query.tau_t else []
                assert sorts == once and sums in (once, []), (name, query)
        del sorts[:], sums[:]
        with mock.patch.object(pipeline, "BATCH_MIN_QUERIES", 1):
            batch = BatchExecutor().run(planner, queries)
    once = Counter(query.tokens for query in queries if query.tau_t)
    assert Counter(sorts) == once and Counter(sums) in (once, Counter())
    assert {result.stats.method for result in batch} == {"planned:token", "planned:grid"}


def test_query_prefix_is_the_signature_prefix_and_threshold(corpus, golden_queries):
    """The compiled prefix and thresholds against the references, which
    derive each on its own, to the bit; no sort or sum at ``τT = 0``."""
    from repro.signatures.prefix import prefix_elements

    from tests.reference_signatures import (
        lemma1_band, query_prefix, spatial_threshold, token_signature,
    )

    weighter = TokenWeighter(obj.tokens for obj in corpus)
    for query in list(_shapes(corpus).values()) + golden_queries:
        compiled = compile_query(query, weighter)
        assert compile_query(compiled, weighter) is compiled
        tokens, c_t = query_prefix(weighter, query)
        assert (compiled.c_t, compiled.c_r) == (c_t, spatial_threshold(query))
        assert compiled.band == lemma1_band(query)
        if not query.tau_t:
            assert compiled.weighted is compiled.total is compiled.prefix is None
            continue
        signature = token_signature(weighter, query.tokens)
        assert compiled.weighted == signature
        assert compiled.total == weighter.total_weight(query.tokens)
        assert compiled.prefix_tokens() == tokens == [
            token for token, _ in prefix_elements(signature, c_t)
        ]


def test_a_record_from_another_weighter_is_compiled_again(corpus, golden_queries):
    """``compile_query`` trusts a record only under the weighter that
    made it."""
    ours = TokenWeighter(obj.tokens for obj in corpus)
    theirs = TokenWeighter(obj.tokens for obj in corpus[: len(corpus) // 2])
    for query in golden_queries:
        foreign = compile_query(query, theirs)
        again = compile_query(foreign, ours)
        assert again is not foreign and again.weighter is ours
        assert again == compile_query(query, ours)


# ----------------------------------------------------------------------
# (c) every member and the planner ≡ naive, four regimes
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def four_regimes(corpus):
    """60 queries: large, small, spatial-only, textual-only."""
    large = generate_queries(corpus, "large", num_queries=15, seed=21, tau_r=0.4, tau_t=0.4)
    small = generate_queries(corpus, "small", num_queries=15, seed=22, tau_r=0.4, tau_t=0.4)
    return (
        list(large) + list(small)
        + [q.with_thresholds(tau_r=0.3, tau_t=0.0) for q in small]
        + [q.with_thresholds(tau_r=0.0, tau_t=0.3) for q in small]
    )


def test_planned_and_every_filter_are_naive(planner, filters, corpus, four_regimes):
    naive = build_method(corpus, "naive", planner.weighter)
    chosen = set()
    for query in four_regimes:
        expected = naive.search(query).answers
        result = planner.search(query)
        chosen.add(result.stats.method)
        assert result.answers == expected
        for name, member in filters.items():
            assert member.search(query).answers == expected, name
    assert chosen == {"planned:token", "planned:grid"}
