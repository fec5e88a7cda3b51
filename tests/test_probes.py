"""One ``probes()`` per filter, replayed against the parent's work counts.

``candidates`` and the I/O model read a signature filter's
``probes(query)`` (see :mod:`repro.filters.base`).  These tests pin:

* a golden table whose answers and per-filter work were written by an
  earlier commit (``tests/fixtures/make_planner_golden.py``) replays —
  every filter built with ``build_method`` and run directly, and the
  planner's member answering with that member's work;
* per filter × query shape, ``probes`` run through the one probe loop is
  ``candidates``, statistics included;
* ``plan()`` enumerates no probes, and a planned query's tokens are
  sorted and summed once before verification (none on the ``grid``
  branch);
* ``query_prefix`` is the signature prefix and threshold, to the bit;
* every member, and the planner, ≡ naive on the four query regimes.
"""

from __future__ import annotations

import inspect
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro import Query, Rect, build_method
from repro.core.stats import SearchStats
from repro.core.verification import Verifier
from repro.datasets import generate_queries, generate_twitter
from repro.exec.planner import PlannedSealSearch, rule
from repro.filters.base import FULL_SCAN, SingleSchemeFilter
from repro.filters.hierarchical_filter import HierarchicalFilter
from repro.filters.hybrid_filter import HybridFilter
from repro.filters.token_filter import TokenFilter
from repro.service.protocol import query_from_wire
from repro.signatures.textual import TextualScheme
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
        chosen = rule(query)[0]
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
    for cls in (SingleSchemeFilter, TokenFilter, HybridFilter, HierarchicalFilter):
        assert list(inspect.signature(cls.probes).parameters) == ["self", "query"]
        assert list(inspect.signature(cls.candidates).parameters)[1:] == ["query", "stats"]


def test_plan_enumerates_no_probes(planner, corpus, golden_queries):
    """``plan()`` calls no filter's ``probes``: it builds no cell
    signature, walks no ``G_t`` and derives no token prefix."""
    refuse = mock.Mock(side_effect=AssertionError("plan() enumerated probes"))
    with mock.patch.object(SingleSchemeFilter, "probes", refuse), mock.patch.object(
        TokenFilter, "probes", refuse
    ), mock.patch.object(HybridFilter, "probes", refuse), mock.patch.multiple(
        HierarchicalFilter, probes=refuse, _region_cells=refuse
    ):
        for query in list(_shapes(corpus).values()) + golden_queries:
            assert planner.plan(query) == rule(query)[0]
    assert not refuse.called


def _counting(cls, attribute: str, calls: list):
    """Patch ``cls.attribute`` to log its first argument and run."""
    real = getattr(cls, attribute)

    def counted(self, first, *rest):
        calls.append(first)
        return real(self, first, *rest)

    return mock.patch.object(cls, attribute, counted)


def test_planned_search_sorts_and_sums_the_query_tokens_at_most_once(
    planner, corpus, golden_queries
):
    """Before verifying, a planned query's tokens are sorted and summed
    once — by the ``token`` member's prefix — and not at all when the
    rule sends it to ``grid``."""
    sorts, sums, before_verify = [], [], []
    real_verify = Verifier.verify

    def verify(self, *args):
        before_verify.append((list(sorts), list(sums)))
        return real_verify(self, *args)

    seen = set()
    with _counting(TokenWeighter, "sort_tokens", sorts), _counting(
        TokenWeighter, "total_weight", sums
    ), mock.patch.object(Verifier, "verify", verify):
        for query in list(_shapes(corpus).values()) + golden_queries:
            del sorts[:], sums[:], before_verify[:]
            chosen = rule(query)[0]
            planner.search(query)
            seen.add(chosen)
            once = [query.tokens] if chosen == "token" else []
            assert before_verify == [(once, once)], query
    assert seen == {"token", "grid"}


def test_query_prefix_is_the_signature_prefix_and_threshold(corpus, golden_queries):
    """``query_prefix`` against the two calls it replaces, to the bit."""
    from repro.signatures.prefix import prefix_elements

    scheme = TextualScheme(TokenWeighter(obj.tokens for obj in corpus))
    for query in list(_shapes(corpus).values()) + golden_queries:
        tokens, c_t = scheme.query_prefix(query)
        assert c_t == scheme.threshold(query)
        assert tokens == [
            token for token, _ in prefix_elements(scheme.query_signature(query), c_t)
        ]


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
