"""One ``probes()`` per filter, one textual prefix per planned query.

``candidates`` and the I/O model read a signature filter's
``probes(query)`` (see :mod:`repro.filters.base`); the planner prices
every member from one ``TextualScheme.query_prefix`` in O(|prefix|) and
hands that prefix to the member it picks.  These tests pin both:

* a golden table whose answers and per-member work were written by the
  parent commit (``tests/fixtures/make_planner_golden.py``) replays —
  every filter run directly, and the planner's choice and estimates as
  exact floats;
* per filter × query shape, ``probes`` run through the one
  probe loop is ``candidates``, statistics included, and
  ``probes(query, text)`` is ``probes(query)``;
* a planned search sorts and sums the query's tokens once, ``plan()``
  enumerates no probes, a ``G_t`` is walked only by a ``seal`` that was
  chosen, and the prefix is handed over as the third positional argument;
* the prefix is in-process plumbing: it reaches no exported document;
* snapshots written before the change load, plan and answer alike.
"""

from __future__ import annotations

import inspect
import json
from pathlib import Path
from unittest import mock

import pytest

from repro import Query, Rect, build_method
from repro.cli import main
from repro.core.engine import METHOD_REGISTRY
from repro.core.stats import SearchStats
from repro.core.verification import Verifier
from repro.datasets import generate_queries, generate_twitter
from repro.exec.planner import (
    DEFAULT_COEFFICIENTS,
    DEFAULT_METHODS,
    UNFITTED_COEFFICIENTS,
    PlannedSealSearch,
)
from repro.extensions.predicates import PredicateSearch
from repro.filters.base import FULL_SCAN, SingleSchemeFilter
from repro.filters.grid_filter import GridFilter
from repro.filters.hierarchical_filter import HierarchicalFilter
from repro.filters.hybrid_filter import HybridFilter
from repro.filters.token_filter import TokenFilter
from repro.io.corpus_io import save_queries
from repro.io.snapshot import load_engine, save_engine
from repro.service.protocol import query_from_wire
from repro.signatures.textual import TextualScheme
from repro.text.weights import TokenWeighter

GOLDEN = json.loads(
    Path(__file__).with_name("fixtures").joinpath("planner_golden.json").read_text("utf-8")
)
COUNTERS = ("lists_probed", "entries_retrieved", "entries_matched")
#: The members whose ``probes`` read the query's text.
TEXTUAL = ("token", "hash-hybrid", "seal")


@pytest.fixture(scope="module")
def corpus():
    return generate_twitter(**{**GOLDEN["corpus"], "space": Rect(*GOLDEN["corpus"]["space"])})


@pytest.fixture(scope="module")
def planner(corpus):
    return PlannedSealSearch(corpus, **GOLDEN["knobs"])


@pytest.fixture(scope="module")
def golden_queries():
    return [query_from_wire(row["query"]) for row in GOLDEN["rows"]]


def _only(planner: PlannedSealSearch, chosen: str) -> dict:
    """Coefficients under which ``chosen`` always wins the plan."""
    return {
        name: [0.0 if name == chosen else 1e9, 0.0, 0.0, 0.0] for name in planner.methods
    }


# ----------------------------------------------------------------------
# (a) the parent commit's behaviour, replayed
# ----------------------------------------------------------------------


def test_golden_table_from_parent_commit(planner):
    assert len({row["chosen"] for row in GOLDEN["rows"]}) >= 3
    for row in GOLDEN["rows"]:
        query = query_from_wire(row["query"])
        for name, member in planner.methods.items():
            direct = member.search(query)
            assert direct.answers == row["answers"], (name, row["query"])
            for counter in COUNTERS + ("candidates",):
                assert getattr(direct.stats, counter) == row["members"][name][counter], (
                    name, counter, row["query"],
                )
        estimates = {e.method: [e.lists, e.entries, e.candidates] for e in planner.plan(query)}
        assert estimates == row["estimates"], row["query"]  # exact floats
        result = planner.search(query)
        stats = result.stats
        assert stats.method == f"planned:{row['chosen']}"
        for counter in COUNTERS + ("candidates",):
            assert getattr(stats, counter) == row["members"][row["chosen"]][counter]
        assert result.answers == row["answers"]


# ----------------------------------------------------------------------
# (b) probes() through the one loop ≡ candidates ≡ the stats it reports,
#     with the prefix handed in or derived
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


@pytest.fixture(scope="module")
def filters(planner, corpus):
    """The four portfolio filters plus a bucketed hybrid (colliding keys)."""
    bucketed = build_method(
        corpus, "hash-hybrid", planner.weighter, granularity=64, num_buckets=97
    )
    return {**planner.methods, "hash-hybrid-bucketed": bucketed}


@pytest.mark.parametrize("name", DEFAULT_METHODS + ("hash-hybrid-bucketed",))
def test_probes_through_the_loop_is_candidates(filters, corpus, golden_queries, name):
    method = filters[name]
    textual = name != "grid"
    scheme = TextualScheme(method.weighter)
    seen_full_scan = seen_probes = False
    shapes = {**_shapes(corpus), **{f"golden-{i}": q for i, q in enumerate(golden_queries)}}
    for shape, query in shapes.items():
        probes = method.probes(query)
        text = scheme.query_prefix(query) if textual else None
        if textual:
            # Handed the prefix or deriving it: element for element,
            # bound for bound.
            assert method.probes(query, text) == probes, shape
        stats = SearchStats()
        got = method.candidates(query, stats)
        if probes is FULL_SCAN:
            seen_full_scan = True
            assert got == method.all_oids(), shape
            assert [getattr(stats, c) for c in COUNTERS] == [0, 0, 0], shape
            assert method.candidates(query, SearchStats(), text) == method.all_oids()
            continue
        seen_probes = True
        elements, bound, t_bound = probes
        assert len(set(elements)) == len(elements), shape
        looped, handed = SearchStats(), SearchStats()
        via_loop = method.index.union_heads(elements, bound, t_bound, looped)
        via_handed = method.candidates(query, handed, text)
        expected = sorted(int(oid) for oid in got)
        assert sorted(int(oid) for oid in via_loop) == expected, shape
        assert sorted(int(oid) for oid in via_handed) == expected, shape
        for counter in COUNTERS:
            assert getattr(looped, counter) == getattr(stats, counter), (shape, counter)
            assert getattr(handed, counter) == getattr(stats, counter), (shape, counter)
        if t_bound is None:
            # A single-bound probe of a missing list still counts.
            assert stats.lists_probed == len(elements), shape
            assert stats.entries_matched == stats.entries_retrieved, shape
        else:
            # A dual-bound probe of a missing list does not.
            assert stats.lists_probed <= len(elements), shape
            present = sum(element in method.index for element in elements)
            assert stats.lists_probed == present, shape
        if shape == "empty-prefix" and name != "token":
            assert elements == [] and len(got) == 0
        if shape == "unknown-token" and name == "token":
            assert "no-such-token" in elements
    assert seen_full_scan and seen_probes


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


def test_prefix_consuming_probes_live_on_the_textual_filters_only():
    for cls in (TokenFilter, HybridFilter, HierarchicalFilter):
        assert list(inspect.signature(cls.probes).parameters) == ["self", "query", "text"]
    # Grid cells are not text, and a Dice or Cosine threshold is not c_T.
    assert list(inspect.signature(SingleSchemeFilter.probes).parameters) == ["self", "query"]
    assert GridFilter.probes is SingleSchemeFilter.probes
    assert PredicateSearch.probes is SingleSchemeFilter.probes


def test_estimate_work_with_and_without_the_prefix(corpus, golden_queries):
    weighter = TokenWeighter(obj.tokens for obj in corpus)
    scheme = TextualScheme(weighter)
    queries = list(_shapes(corpus).values()) + golden_queries[::4]
    for name in sorted(METHOD_REGISTRY):
        if name == "planned":
            continue
        method = build_method(corpus, name, weighter)
        for query in queries:
            text = scheme.query_prefix(query)
            alone, handed = method.estimate_work(query), method.estimate_work(query, text)
            assert alone[:3] == handed[:3], (name, query)
            # Handed back for its candidates by the members that read
            # text; every other method ignores it.
            assert alone[3] is None
            assert handed[3] is (text if name in TEXTUAL else None), name


# ----------------------------------------------------------------------
# (c) one sort, one sum, no walk: what a planned search costs
# ----------------------------------------------------------------------


def _counting(cls, attribute: str, calls: list):
    """Patch ``cls.attribute`` to log its first argument and run."""
    real = getattr(cls, attribute)

    def counted(self, first, *rest):
        calls.append(first)
        return real(self, first, *rest)

    return mock.patch.object(cls, attribute, counted)


def test_planned_search_sorts_and_sums_the_query_tokens_once(planner, golden_queries):
    sorts, sums, before_verify = [], [], []
    real_verify = Verifier.verify

    def verify(self, *args):
        before_verify.append((list(sorts), list(sums)))
        return real_verify(self, *args)

    with _counting(TokenWeighter, "sort_tokens", sorts), _counting(
        TokenWeighter, "total_weight", sums
    ), mock.patch.object(Verifier, "verify", verify):
        for query in golden_queries:
            del sorts[:], sums[:], before_verify[:]
            planner.search(query)
            assert before_verify == [([query.tokens], [query.tokens])], query


def test_plan_enumerates_no_probes(planner, golden_queries):
    """``plan()`` calls no ``probes`` that builds a cell signature or
    walks a ``G_t``; ``token``'s — whose probes *are* the prefix — only
    with the prefix handed in, never to derive its own."""
    refuse = mock.Mock(side_effect=AssertionError("plan() enumerated probes"))
    handed = []
    real = TokenFilter.probes

    def token_probes(self, query, text):  # two arguments, or a TypeError
        handed.append(text)
        return real(self, query, text)

    with mock.patch.multiple(SingleSchemeFilter, probes=refuse), mock.patch.multiple(
        HybridFilter, probes=refuse
    ), mock.patch.multiple(
        HierarchicalFilter, probes=refuse, _region_cells=refuse
    ), mock.patch.object(TokenFilter, "probes", token_probes):
        for query in golden_queries:
            assert len(planner.plan(query)) == len(DEFAULT_METHODS)
    assert not refuse.called
    assert len(handed) == len(golden_queries)


def test_seal_grids_are_walked_once_per_planned_search(planner, golden_queries):
    seal = planner.methods["seal"]
    walked = []
    real = HierarchicalFilter._region_cells

    def counting(grids, region):
        walked.append(grids)
        return real(grids, region)

    with mock.patch.object(HierarchicalFilter, "_region_cells", staticmethod(counting)):
        others = 0
        for query in golden_queries:
            del walked[:]
            if planner.search(query).stats.method != "planned:seal":
                others += 1
                assert walked == []
        assert others > 0
        walks = 0
        with mock.patch.dict(planner.coefficients, _only(planner, "seal")):
            for query in golden_queries:
                tokens, c_t = seal.textual.query_prefix(query)
                if c_t <= 0.0 or query.tau_r <= 0.0:
                    continue  # seal cannot filter it: no price ranks it first
                del walked[:]
                result = planner.search(query)
                assert result.stats.method == "planned:seal"
                # Once per prefix token that owns grids: plan() walked none.
                assert len(walked) == sum(token in seal.token_grids for token in tokens)
                assert len(walked) <= len(tokens)
                walks += len(walked)
        assert walks > 0


@pytest.mark.parametrize(
    "portfolio, knobs",
    [
        (("grid", "hash-hybrid", "keyword-first"), {"granularity": GOLDEN["knobs"]["granularity"]}),
        (("spatial-first", "naive"), {}),
    ],
    ids=["portfolio0", "portfolio1"],
)
def test_member_without_probes_is_called_with_two_arguments(corpus, portfolio, knobs):
    """A member whose estimate hands nothing back — it filters without
    text, or not at all — keeps the two-argument ``candidates`` call."""
    planner = PlannedSealSearch(corpus, methods=portfolio, **knobs)
    query = query_from_wire(GOLDEN["rows"][0]["query"])
    expected = build_method(corpus, "naive", planner.weighter).search(query).answers
    for name, member in planner.methods.items():
        if name == "hash-hybrid":
            continue  # takes the prefix; here so that something else can be preferred to it
        assert member.estimate_work(query, ([], 1.0))[3] is None
        calls = []

        def two_arguments(query, stats, _real=member.candidates):
            calls.append(query)
            return _real(query, stats)

        with mock.patch.dict(planner.coefficients, _only(planner, name)), mock.patch.object(
            member, "candidates", two_arguments
        ):
            result = planner.search(query)
        assert calls == [query], name
        assert result.stats.method == f"planned:{name}"
        assert result.answers == expected


def test_members_with_probes_receive_them_as_the_third_positional_argument(planner):
    query = query_from_wire(GOLDEN["rows"][0]["query"])
    derived = []
    real_prefix = TextualScheme.query_prefix

    def query_prefix(self, query):
        derived.append(real_prefix(self, query))
        return derived[-1]

    for name in TEXTUAL:
        member = planner.methods[name]
        received = []

        def spy(*args, _real=member.candidates):
            received.append(args)
            return _real(*args)

        del derived[:]
        with mock.patch.dict(planner.coefficients, _only(planner, name)), mock.patch.object(
            member, "candidates", spy
        ), mock.patch.object(TextualScheme, "query_prefix", query_prefix):
            planner.search(query)
        ((got_query, _, text),) = received
        assert got_query is query
        # The very object the planner derived — and nobody derived another.
        assert len(derived) == 1 and text is derived[0]
        assert text == TextualScheme(member.weighter).query_prefix(query)


# ----------------------------------------------------------------------
# (d) the prefix is plumbing, not output
# ----------------------------------------------------------------------


def test_probes_reach_no_exported_document(planner, tmp_path, capsys):
    queries = [query_from_wire(row["query"]) for row in GOLDEN["rows"][:3]]
    keys = {"lists", "entries", "candidates", "cost_s"}
    for query in queries:
        estimates = planner.plan(query)
        assert any(estimate.text is not None for estimate in estimates)
        for estimate in estimates:
            assert set(estimate.as_dict()) == keys
            assert "text" not in repr(estimate)
        explained = planner.explain(query)
        assert set(explained) == {"features", "chosen", "estimates", "ranking"}
        assert all(set(estimate) == keys for estimate in explained["estimates"].values())

    engine, workload, rows = tmp_path / "planned.pkl", tmp_path / "q.jsonl", tmp_path / "rows.jsonl"
    save_engine(planner, engine)
    save_queries(queries, workload)
    assert main(["plan", str(engine), "--queries", str(workload), "--json",
                 "--record", str(rows)]) == 0
    decisions = json.loads(capsys.readouterr().out)["queries"]
    assert all(
        set(estimate) == keys
        for decision in decisions
        for estimate in decision["estimates"].values()
    )
    recorded = rows.read_text("utf-8")
    assert len(recorded.splitlines()) == len(queries)
    for line in recorded.splitlines():
        assert all(set(estimate) == keys for estimate in json.loads(line)["predicted"].values())


# ----------------------------------------------------------------------
# (e) snapshots written before the change; both sets of defaults
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


@pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
def test_parent_written_snapshot_loads_plans_and_answers_alike(
    planner, four_regimes, tmp_path, mmap
):
    """What a planner snapshot from before the change holds: the
    hand-set tuple as every member's live coefficients, and no attribute
    this change added — it added none, to the planner or to a member, and
    the key set below is the parent's."""
    assert set(planner.__getstate__()) == {
        "corpus", "weighter", "verifier", "methods", "coefficients",
        "metrics", "_record_path", "_rows",
    }
    old = {name: list(UNFITTED_COEFFICIENTS) for name in planner.methods}
    with mock.patch.dict(planner.coefficients, old):
        save_engine(planner, tmp_path / "parent.pkl")
        loaded = load_engine(tmp_path / "parent.pkl", mmap=mmap)
        assert loaded.coefficients == old
        for query in four_regimes:
            assert loaded.plan(query) == planner.plan(query)
            mine, theirs = planner.search(query), loaded.search(query)
            assert theirs.answers == mine.answers
            assert theirs.stats.method == mine.stats.method


@pytest.mark.parametrize("defaults", ["shipped", "old-tuple"])
def test_planned_is_every_member_is_naive(planner, corpus, four_regimes, defaults):
    coefficients = {
        name: list(
            DEFAULT_COEFFICIENTS[name] if defaults == "shipped" else UNFITTED_COEFFICIENTS
        )
        for name in planner.methods
    }
    naive = build_method(corpus, "naive", planner.weighter)
    chosen = set()
    with mock.patch.dict(planner.coefficients, coefficients):
        for query in four_regimes:
            expected = naive.search(query).answers
            result = planner.search(query)
            chosen.add(result.stats.method)
            assert result.answers == expected
            for name, member in planner.methods.items():
                assert member.search(query).answers == expected, name
    assert len(chosen) >= 2
