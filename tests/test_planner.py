"""PlannedSealSearch: the threshold rule, answer identity, every execution shape.

The planner may pick any member because every member hands the one
verifier a candidate superset: the pick moves time, never an answer.
These tests pin:

* the rule as a dispatch table, read off ``SearchStats.method``, and
  ``query --explain`` printing that label;
* ``planned`` ≡ ``naive`` on the perf ledger's four query regimes,
  through ``BatchExecutor``, under segmented churn and over a
  ``NetworkServer``;
* what ``plan()`` costs: no textual prefix, no weight, no posting list;
* the members: ``token`` and ``grid`` built, the comparison filters
  built only on request and never persisted, one verifier for all;
* state written before the rule (four members, cost coefficients,
  the cost model's knobs) loading, dispatching by the rule, answering
  alike;
* stats attribution and the service's ``planner`` metrics block: the
  dispatches the service executed, kept across mutations and swaps.
"""

from __future__ import annotations

import json
from contextlib import ExitStack
from unittest import mock

import pytest

from benchmarks.ledger.inputs import REGIMES, make_corpus, make_queries
from repro import METHOD_REGISTRY, Query, Rect, SealSearch, SegmentedSealSearch, build_method
from repro.core.engine import accepted_params
from repro.core.errors import ConfigurationError
from repro.core.stats import SearchStats
from repro.exec.pipeline import BatchExecutor
from repro.exec.planner import (
    COMPARISON_METHODS,
    DEFAULT_METHODS,
    WHY,
    PlannedSealSearch,
    Portfolio,
    rule,
)
from repro.filters.hierarchical_filter import HierarchicalFilter
from repro.filters.hybrid_filter import HybridFilter
from repro.index.inverted import InvertedIndex
from repro.service import QueryService
from repro.text.weights import TokenWeighter

KNOBS = dict(granularity=32)
REGIME_NAMES = ("large", "small", "spatial-only", "textual-only")
#: Where the rule sends each ledger regime.
REGIME_MEMBER = {"large": "token", "small": "token", "spatial-only": "grid",
                 "textual-only": "token"}


@pytest.fixture(scope="module")
def corpus():
    return make_corpus(1200, 7)


@pytest.fixture(scope="module")
def weighter(corpus):
    return TokenWeighter(obj.tokens for obj in corpus)


@pytest.fixture(scope="module")
def planner(corpus, weighter):
    return PlannedSealSearch(corpus, weighter, **KNOBS)


@pytest.fixture(scope="module")
def naive(corpus, weighter):
    return build_method(corpus, "naive", weighter)


@pytest.fixture(scope="module")
def regimes(corpus):
    return {
        name: make_queries(corpus, kind, 12, tau_r, tau_t, seed)
        for seed, (name, (kind, tau_r, tau_t)) in enumerate(zip(REGIME_NAMES, REGIMES))
    }


@pytest.fixture(scope="module")
def workload(regimes):
    return [query for name in REGIME_NAMES for query in regimes[name]]


# ----------------------------------------------------------------------
# The rule
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "case, tau_r, tau_t, tokens, member",
    [
        ("vacuous textual", 0.3, 0.0, "known", "grid"),
        ("vacuous spatial", 0.0, 0.3, "known", "token"),
        ("both biting", 0.4, 0.4, "known", "token"),
        ("unknown tokens only", 0.4, 0.4, {"no-such-token", "nope"}, "token"),
        ("both vacuous", 0.0, 0.0, "known", "grid"),
        ("empty token set", 0.4, 0.4, set(), "grid"),
    ],
)
def test_dispatch_table(planner, naive, corpus, case, tau_r, tau_t, tokens, member):
    tokens = corpus[0].tokens if tokens == "known" else tokens
    query = Query(corpus[0].region, frozenset(tokens), tau_r, tau_t)
    result = planner.search(query)
    assert result.stats.method == f"planned:{member}", case
    assert result.answers == naive.search(query).answers, case
    assert rule(query) == member, case


@pytest.mark.parametrize(
    "tau_r, tau_t, tokens, expected",
    [
        (0.3, 0.0, {"a", "b"}, "grid"),
        (1.0, 0.0, {"a"}, "grid"),
        (0.4, 0.0, set(), "grid"),
        (0.4, 0.4, set(), "grid"),
        (0.0, 5e-324, {"a"}, "token"),
        (0.0, 1.0, {"a", "b"}, "token"),
    ],
    ids=["tau_t-zero", "tau_r-one-tau_t-zero", "tau_t-zero-no-tokens", "no-tokens",
         "smallest-positive-tau_t", "tau_t-one"],
)
def test_rule_branches(tau_r, tau_t, tokens, expected):
    """The rule reads only the thresholds and whether the query has
    tokens: any positive τT with a token goes to ``token``."""
    query = Query(Rect(0, 0, 1, 1), frozenset(tokens), tau_r, tau_t)
    assert rule(query) == expected


@pytest.mark.parametrize("mode", ["--queries", "--batch-file"])
def test_query_explain_prints_each_results_label(tmp_path, capsys, planner, workload, mode):
    """``query --explain`` prints, under each answer line, the label the
    result records, glossed by why the rule picks that member."""
    from repro.cli import main
    from repro.io import save_engine, save_queries

    assert set(WHY) == set(DEFAULT_METHODS)
    save_engine(planner, tmp_path / "planned.pkl")
    save_queries(workload, tmp_path / "q.jsonl")
    assert main(["query", str(tmp_path / "planned.pkl"), mode, str(tmp_path / "q.jsonl"),
                 "--explain"]) == 0
    ran = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  ")]
    assert ran == [
        f"  ran: planned:{rule(query)}, {planner.search(query).stats.candidates} candidates "
        f"({WHY[rule(query)]})"
        for query in workload
    ]


@pytest.mark.parametrize("regime", REGIME_NAMES)
def test_planned_is_naive_on_every_ledger_regime(planner, naive, regimes, regime):
    for query in regimes[regime]:
        result = planner.search(query)
        assert result.stats.method == f"planned:{REGIME_MEMBER[regime]}"
        assert result.answers == naive.search(query).answers, query


@pytest.mark.parametrize("name", sorted(set(METHOD_REGISTRY) - {"planned"}))
def test_bit_identical_to_every_registry_method(planner, corpus, weighter, workload, name):
    method = build_method(corpus, name, weighter, **accepted_params(name, KNOBS))
    for query in workload:
        assert planner.search(query).answers == method.search(query).answers, query


def test_batch_executor_matches_naive(planner, naive, workload):
    batched = BatchExecutor().run(planner, workload)
    assert [r.answers for r in batched] == [naive.search(q).answers for q in workload]


def test_plan_derives_no_prefix_and_reads_no_list(planner, workload):
    refuse = mock.Mock(side_effect=AssertionError("plan() did more than read thresholds"))
    with mock.patch("repro.signatures.query.compile_query", refuse), mock.patch.object(
        InvertedIndex, "union_heads", refuse
    ), mock.patch.multiple(TokenWeighter, total_weight=refuse, sort_tokens=refuse):
        for query in workload:
            assert planner.plan(query) in DEFAULT_METHODS
    assert not refuse.called


def test_one_plan_then_one_member_per_query(planner, workload):
    calls = []

    def spy(name, real):
        def call(*args):
            calls.append(name)
            return real(*args)
        return call

    with ExitStack() as patches:
        patches.enter_context(mock.patch.object(planner, "plan", spy("plan", planner.plan)))
        for name, member in planner.methods.rule_members().items():
            patches.enter_context(
                mock.patch.object(member, "candidates", spy(name, member.candidates))
            )
        for query in workload:
            del calls[:]
            planner.search(query)
            assert calls == ["plan", rule(query)]


# ----------------------------------------------------------------------
# The members
# ----------------------------------------------------------------------


def test_only_the_rule_members_are_built(corpus, weighter):
    refuse = mock.Mock(side_effect=AssertionError("a comparison member was built"))
    with mock.patch.object(HybridFilter, "_build", refuse), mock.patch.object(
        HierarchicalFilter, "_build", refuse
    ):
        planner = build_method(corpus[:300], "planned", weighter)
    assert list(planner.methods) == list(DEFAULT_METHODS + COMPARISON_METHODS)
    assert "seal" in planner.methods and "naive" not in planner.methods
    report = planner.index_size()
    members = planner.methods.rule_members()
    assert report.num_postings == sum(m.index_size().num_postings for m in members.values())


def test_index_size_sums_the_rule_members(planner):
    report = planner.index_size()
    members = planner.methods.rule_members().values()
    for field in ("num_lists", "num_postings", "directory_bytes", "posting_bytes",
                  "page_bytes"):
        assert getattr(report, field) == sum(getattr(m.index_size(), field) for m in members)
    assert report.num_postings > 0


def test_portfolio_names_every_filter_and_builds_none_twice(planner):
    portfolio = planner.methods
    assert len(portfolio) == len(list(portfolio)) == 4
    assert all(name in portfolio for name in DEFAULT_METHODS + COMPARISON_METHODS)
    assert "naive" not in portfolio and "planned" not in portfolio
    assert set(portfolio.rule_members()) == set(DEFAULT_METHODS)
    for name in DEFAULT_METHODS:
        assert portfolio[name] is portfolio.rule_members()[name]
        assert type(portfolio[name]).name == name
    with pytest.raises(KeyError):
        portfolio["planned"]


def test_comparison_members_are_built_on_request_and_not_persisted(
    tmp_path, corpus, weighter, workload, naive
):
    from repro.io import load_engine, save_engine

    planner = PlannedSealSearch(corpus[:600], weighter, **KNOBS)
    seal = planner.methods["seal"]
    assert planner.methods["seal"] is seal            # built once
    assert seal.verifier is planner.verifier
    oracle = build_method(corpus[:600], "naive", weighter)
    for query in workload[::6]:
        assert seal.search(query).answers == oracle.search(query).answers
    save_engine(planner, tmp_path / "p.pkl")
    loaded = load_engine(tmp_path / "p.pkl")
    builds = []
    real = Portfolio._build
    with mock.patch.object(Portfolio, "_build", lambda self, name: builds.append(name)
                           or real(self, name)):
        loaded.methods["hash-hybrid"]
    assert builds == ["hash-hybrid"]
    with pytest.raises(KeyError):
        loaded.methods["naive"]


def test_one_verifier_for_every_member(tmp_path, planner, workload):
    from repro.io import load_engine, save_engine

    save_engine(planner, tmp_path / "planned.pkl")
    for engine in (planner, load_engine(tmp_path / "planned.pkl")):
        for member in engine.methods.rule_members().values():
            assert member.verifier is engine.verifier


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "knobs, unknown",
    [
        ({"granularty": 16}, "granularty"),                  # a typo
        ({"granularity": 16, "max_entries": 8}, "max_entries"),
        ({"mt": 8}, "mt"),                                   # only seal took it
        ({"methods": ("token", "grid")}, "methods"),         # the cost model's knobs
        ({"coefficients": {}}, "coefficients"),
        ({"record_to": "rows.jsonl"}, "record_to"),
    ],
)
def test_knob_neither_member_accepts_rejected_before_any_build(corpus, knobs, unknown):
    no_index = mock.patch(
        "repro.index.inverted.InvertedIndex.from_postings", side_effect=AssertionError
    )
    with no_index, pytest.raises(ConfigurationError, match=f"'planned'.*'{unknown}'"):
        build_method(corpus, "planned", **knobs)


def test_each_member_gets_the_knobs_it_accepts(corpus):
    planner = PlannedSealSearch(corpus[:50], granularity=16)
    assert planner.methods["grid"].granularity == 16
    assert planner.methods["hash-hybrid"].granularity == 16


def test_registry_and_facade_build_planned(corpus):
    method = build_method(corpus[:200], "planned", granularity=16)
    assert isinstance(method, PlannedSealSearch)
    facade = SealSearch([(o.region, o.tokens) for o in corpus[:200]], method="planned")
    (segment,) = facade.segment_methods()
    assert isinstance(segment, PlannedSealSearch)


# ----------------------------------------------------------------------
# State written before the rule
# ----------------------------------------------------------------------


def test_parent_written_configs_drop_the_cost_models_knobs(tmp_path, corpus, workload):
    """A WAL config record written before the rule names the cost model's
    knobs and those of the evicted members: it recovers, dispatches by
    the rule and answers like a fresh engine.  (A snapshot that old is
    refused with "rebuild the index", see ``tests/test_io.py``.)"""
    from repro.exec.durable import DurableSegmentedSealSearch, recover
    from repro.io.wal import WriteAheadLog

    legacy = {"granularity": 16, "methods": ["token", "grid", "hash-hybrid", "seal"],
              "coefficients": {"token": [1e-5, 0, 0, 0]}, "record_to": None,
              "mt": 8, "max_level": 5, "min_objects": 4, "num_buckets": 97}
    pairs = [(o.region, o.tokens) for o in corpus[:300]]
    knobs = dict(buffer_capacity=64, granularity=16)

    def inserted(engine):
        for region, tokens in pairs:
            engine.insert(region, tokens)
        return engine

    fresh = inserted(SegmentedSealSearch(method="planned", **knobs))
    config = {**fresh.config(), "params": legacy}
    durable = DurableSegmentedSealSearch(
        SegmentedSealSearch(method="planned", **knobs),
        WriteAheadLog.create(tmp_path / "w.wal", config=config),
    )
    inserted(durable).close()
    replayed = recover(tmp_path / "none.pkl", tmp_path / "w.wal")
    try:
        assert replayed.config()["params"] == {"granularity": 16}
        for query in workload:
            assert replayed.search_query(query).answers == fresh.search_query(query).answers
    finally:
        replayed.close()


# ----------------------------------------------------------------------
# Execution shapes and observability
# ----------------------------------------------------------------------


def _planned_segments(engine) -> int:
    return sum(isinstance(method, PlannedSealSearch) for method in engine.segment_methods())


def test_planned_segments_match_token_segments_under_churn(corpus, workload, monkeypatch):
    monkeypatch.setattr("repro.exec.segments.FULL_INDEX_MIN_OBJECTS", 0)
    pairs = [(o.region, o.tokens) for o in corpus[:200]]
    planned = SegmentedSealSearch(pairs, "planned", buffer_capacity=64, merge_fanout=8,
                                  **KNOBS)
    oracle = SegmentedSealSearch(pairs, "token", buffer_capacity=64, merge_fanout=8)
    for engine in (planned, oracle):
        for obj in corpus[200:330]:
            engine.insert(obj.region, obj.tokens)
        for oid in (3, 17, 42, 210):
            engine.delete(oid)
        engine.flush()
    planners = _planned_segments(planned)
    assert planners >= 2
    with QueryService(planned, enable_cache=False) as service:
        for query in workload:
            assert service.query(query).answers == oracle.search_query(query).answers
        metrics = service.metrics()["planner"]
    # Every planned segment dispatches per query.
    assert metrics["decisions"] == planners * len(workload)
    assert sum(metrics["selections"].values()) == metrics["decisions"]


@pytest.fixture
def segmented(corpus, monkeypatch):
    """A planned engine of two planned segments."""
    monkeypatch.setattr("repro.exec.segments.FULL_INDEX_MIN_OBJECTS", 0)
    pairs = [(o.region, o.tokens) for o in corpus[:400]]
    engine = SegmentedSealSearch(pairs[:300], "planned", buffer_capacity=512,
                                 merge_fanout=8, **KNOBS)
    for region, tokens in pairs[300:]:
        engine.insert(region, tokens)
    engine.flush()
    assert _planned_segments(engine) == 2
    return engine


def _decisions(service) -> int:
    return service.metrics()["planner"]["decisions"]


def test_planner_block_counts_every_segment(segmented, workload):
    with QueryService(segmented, enable_cache=False) as service:
        for query in workload[:4]:
            service.query(query)
        metrics = service.metrics()["planner"]
    # One decision per segment per query, tallied across every segment.
    assert metrics["decisions"] == 4 * 2
    assert set(metrics["selections"]) <= set(DEFAULT_METHODS)
    assert sum(entry["count"] for entry in metrics["filter_latency_ms"].values()) == 8


def test_planner_block_survives_compaction(segmented, workload):
    with QueryService(segmented, enable_cache=False) as service:
        for query in workload[:10]:
            service.query(query)
        assert _decisions(service) == 20
        service.apply(lambda engine: engine.compact())
        assert _decisions(service) == 20
        service.query(workload[0])  # one segment left
        assert _decisions(service) == 21


def test_planner_block_survives_an_engine_swap(corpus, workload):
    pairs = [(o.region, o.tokens) for o in corpus]
    with QueryService.from_data(pairs, engine_params=KNOBS, enable_cache=False) as service:
        for query in workload[:10]:
            service.query(query)
        service.swap_engine(SealSearch(pairs, method="planned", **KNOBS))
        assert service.metrics()["requests"]["total"] == 10
        assert _decisions(service) == 10


def test_planner_block_skips_calls_that_bypass_the_service(segmented, workload):
    with QueryService(segmented, enable_cache=False) as service:
        for query in workload[:10]:
            service.query(query)
        segmented.search_query(workload[0])
        segmented.search_batch(workload[:3])
        assert _decisions(service) == 20


def test_planner_block_skips_cache_hits_and_duplicates(corpus, workload):
    pairs = [(o.region, o.tokens) for o in corpus]
    with QueryService.from_data(pairs, engine_params=KNOBS) as service:
        for query in workload[:5]:
            service.query(query)
            service.query(query)
        # Five hits, then three queries twice each: three executions.
        service.query_batch(workload[:5] + workload[5:8] * 2)
        assert service.metrics()["cache"]["hits"] == 10
        assert _decisions(service) == 8


def test_network_server_serves_planned_segments(corpus, workload, naive, monkeypatch):
    from repro.service import NetworkClient, NetworkServer

    monkeypatch.setattr("repro.exec.segments.FULL_INDEX_MIN_OBJECTS", 0)
    pairs = [(o.region, o.tokens) for o in corpus]
    engine = SegmentedSealSearch(pairs, "planned", buffer_capacity=500, **KNOBS)
    with QueryService(engine, enable_cache=False) as service:
        with NetworkServer(service) as server:
            with NetworkClient(*server.address, timeout=10.0) as client:
                for query in workload[::4]:
                    assert client.query(query).answers == naive.search(query).answers
        assert service.metrics()["planner"]["decisions"] > 0


def test_selection_metrics_count_dispatches(corpus, workload):
    pairs = [(o.region, o.tokens) for o in corpus]
    with QueryService.from_data(pairs, engine_params=KNOBS, enable_cache=False) as service:
        for query in workload:
            service.query(query)
        metrics = service.metrics()["planner"]
    assert set(metrics) == {"decisions", "selections", "filter_latency_ms"}
    assert metrics["decisions"] == len(workload)
    assert metrics["selections"] == {"grid": 12, "token": 36}
    for member, latency in metrics["filter_latency_ms"].items():
        assert set(latency) == {"count", "mean_ms", "p50_ms", "p99_ms"}
        assert latency["count"] == metrics["selections"][member]


def test_service_metrics_planner_block(corpus, workload):
    service = QueryService.from_data(
        [(o.region, o.tokens) for o in corpus], engine_params=KNOBS, enable_cache=False
    )
    with service:
        for query in workload[:5]:
            assert service.query(query).stats.method.startswith("planned:")
        metrics = service.metrics()
    assert metrics["planner"]["decisions"] == 5
    json.dumps(metrics)


def test_service_metrics_planner_none_without_planner(corpus):
    facade = SealSearch([(o.region, o.tokens) for o in corpus[:100]], method="token")
    with QueryService(facade, enable_cache=False) as service:
        assert service.metrics()["planner"] is None


def test_snapshot_roundtrip(tmp_path, planner, workload):
    from repro.io import load_engine, save_engine
    from repro.io.snapshot import validate_snapshot

    save_engine(planner, tmp_path / "planned.pkl")
    manifest = validate_snapshot(tmp_path / "planned.pkl")["manifest"]
    assert manifest["kind"] == "planned"
    assert manifest["methods"] == list(DEFAULT_METHODS)
    loaded = load_engine(tmp_path / "planned.pkl")
    for query in workload[:8]:
        assert loaded.search(query).answers == planner.search(query).answers


class TestStatsAttribution:
    def test_fixed_method_stamps_registry_name(self, corpus, workload):
        result = build_method(corpus[:200], "token").search(workload[0])
        assert result.stats.method == "token"

    def test_copy_preserves_attribution(self):
        stats = SearchStats(method="token", lists_probed=3)
        stats.per_source.append(SearchStats(method="grid", lists_probed=1))
        clone = stats.copy()
        assert clone.method == "token"
        assert clone.per_source[0].method == "grid"
        clone.per_source[0].lists_probed = 99
        assert stats.per_source[0].lists_probed == 1  # deep, not shared

    def test_copy_keeps_every_field_in_its_place(self):
        stats = SearchStats(1, 2, 3, 4, 5, 6.5, 7.5, "m", [SearchStats(results=8)])
        assert stats.copy() == stats

    def test_merge_does_not_concatenate_sources(self):
        a = SearchStats(method="a")
        a.per_source.append(SearchStats(method="x"))
        b = SearchStats(method="b")
        b.per_source.append(SearchStats(method="y"))
        a.merge(b)
        assert a.method == "a"
        assert [s.method for s in a.per_source] == ["x"]

    def test_segment_fanout_preserves_per_source_stats(self, twitter_small,
                                                       twitter_small_queries):
        pairs = [(o.region, o.tokens) for o in twitter_small]
        # Bulk load seals one segment; the post-construction inserts
        # seal a second, so the fan-out genuinely crosses segments.
        engine = SegmentedSealSearch(pairs[:300], "token", buffer_capacity=512,
                                     merge_fanout=8)
        for region, tokens in pairs[300:]:
            engine.insert(region, tokens)
        engine.flush()
        assert engine.num_segments >= 2
        stats = engine.search_query(twitter_small_queries[0]).stats
        assert stats.method == "segmented:token"
        assert len(stats.per_source) >= 2
        for source in stats.per_source:
            assert source.method == "token"
        # The aggregate is exactly the sum of its sources.
        assert stats.lists_probed == sum(s.lists_probed for s in stats.per_source)
        assert stats.candidates == sum(s.candidates for s in stats.per_source)
