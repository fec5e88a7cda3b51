"""PlannedSealSearch: differential identity, dispatch, record→fit, metrics.

The planner's entire value rests on one invariant — dispatching to *any*
registry method yields bit-identical answers, so choosing per query is
free — and on its observability being truthful.  These tests pin:

* answer identity against every fixed registry method, including the
  degenerate-threshold regimes where methods fall back to full scans;
* dispatch sanity: vacuous thresholds steer the planner *away* from the
  degenerate methods;
* the record → fit → serve calibration workflow, including the JSONL
  row schema, coefficient persistence, and the mispredict counter;
* stats attribution (PR 7's satellite bugfix): ``SearchStats.method``
  labels survive pipelines and segment fan-out keeps per-source
  breakdowns instead of erasing them in the merge;
* the planner inside every execution shape: BatchExecutor, segmented
  engine under churn, QueryService (``planner`` metrics block), network
  server, snapshot save/load.
"""

from __future__ import annotations

import json
from unittest import mock

import pytest

from repro import Query, Rect, SealSearch, SegmentedSealSearch, build_method
from repro.core.errors import ConfigurationError
from repro.core.stats import SearchStats
from repro.exec.batch import BatchExecutor
from repro.datasets import generate_twitter
from repro.exec.planner import (
    COST_TERMS,
    DEFAULT_COEFFICIENTS,
    DEFAULT_METHODS,
    UNFITTED_COEFFICIENTS,
    PlannedSealSearch,
    collect_planner_metrics,
    fit_coefficients,
    iter_planners,
    load_coefficients,
    save_coefficients,
)

#: Small knobs so each portfolio builds fast.
KNOBS = dict(granularity=32, mt=8, max_level=6, min_objects=4)


def _mixed_queries(base_queries):
    """The base workload plus its degenerate-threshold variants."""
    out = list(base_queries)
    out.extend(q.with_thresholds(tau_r=0.3, tau_t=0.0) for q in base_queries[:3])
    out.extend(q.with_thresholds(tau_r=0.0, tau_t=0.3) for q in base_queries[:3])
    return out


@pytest.fixture(scope="module")
def planner(twitter_small, twitter_small_weighter):
    return PlannedSealSearch(twitter_small, twitter_small_weighter, **KNOBS)


@pytest.fixture(scope="module")
def fixed_methods(twitter_small, twitter_small_weighter):
    """Every registry method (not just the portfolio), same knobs."""
    out = {}
    for name in ("naive", "keyword-first", "spatial-first", "irtree",
                 "token", "grid", "hash-hybrid", "seal"):
        params = {}
        if name in ("grid", "hash-hybrid"):
            params["granularity"] = KNOBS["granularity"]
        if name == "seal":
            params.update(mt=KNOBS["mt"], max_level=KNOBS["max_level"],
                          min_objects=KNOBS["min_objects"])
        out[name] = build_method(twitter_small, name, twitter_small_weighter, **params)
    return out


class TestDifferentialIdentity:
    def test_bit_identical_to_every_registry_method(
        self, planner, fixed_methods, twitter_small_queries
    ):
        for query in _mixed_queries(list(twitter_small_queries)):
            expected = None
            for name, method in fixed_methods.items():
                answers = method.search(query).answers
                if expected is None:
                    expected = answers
                assert answers == expected, f"{name} diverged on {query}"
            assert planner.search(query).answers == expected

    def test_batch_executor_matches_per_query(self, planner, twitter_small_queries):
        queries = _mixed_queries(list(twitter_small_queries))
        batched = BatchExecutor().run(planner, queries)
        assert [r.answers for r in batched] == [
            planner.search(q).answers for q in queries
        ]


class TestPlanning:
    def test_plan_ranks_all_methods_cheapest_first(self, planner, twitter_small_queries):
        estimates = planner.plan(twitter_small_queries[0])
        assert sorted(e.method for e in estimates) == sorted(DEFAULT_METHODS)
        costs = [e.cost for e in estimates]
        assert costs == sorted(costs)

    def test_explain_document(self, planner, twitter_small_queries):
        decision = planner.explain(twitter_small_queries[0])
        assert decision["chosen"] == decision["ranking"][0]
        assert set(decision["estimates"]) == set(DEFAULT_METHODS)
        for estimate in decision["estimates"].values():
            assert set(estimate) == {"lists", "entries", "candidates", "cost_s"}
        features = decision["features"]
        assert features["num_tokens"] == len(twitter_small_queries[0].tokens)
        assert features["tau_r"] == twitter_small_queries[0].tau_r
        # The document must be JSON-ready as-is (the CLI prints it).
        json.dumps(decision)

    def test_vacuous_textual_threshold_avoids_token(self, planner, twitter_small_queries):
        query = twitter_small_queries[0].with_thresholds(tau_r=0.3, tau_t=0.0)
        # token/hybrid/seal all degenerate to a full scan here; only the
        # grid filter still prunes, and the estimator knows it exactly.
        assert planner.choose(query) == "grid"

    def test_vacuous_spatial_threshold_avoids_grid(self, planner, twitter_small_queries):
        query = twitter_small_queries[0].with_thresholds(tau_r=0.0, tau_t=0.3)
        assert planner.choose(query) == "token"

    def test_full_scan_never_outranks_a_filter_whatever_its_price(
        self, planner, twitter_small_queries
    ):
        # What a fit returns when no recorded query degenerated: nothing
        # identifies the candidate price, so it is 0 and a full scan
        # costs the intercept.
        free_scans = {name: [1e-5, 1e-5, 1e-8, 0.0] for name in planner.methods}
        query = twitter_small_queries[0]
        with mock.patch.dict(planner.coefficients, free_scans):
            assert planner.choose(query.with_thresholds(tau_r=0.3, tau_t=0.0)) == "grid"
            assert planner.choose(query.with_thresholds(tau_r=0.0, tau_t=0.3)) == "token"
            # No member can filter: by price again (equal here, so the
            # first registered).
            ranking = planner.plan(query.with_thresholds(tau_r=0.0, tau_t=0.0))
            assert [e.method for e in ranking] == list(planner.methods)

    def test_stats_method_label_refined_to_chosen(self, planner, twitter_small_queries):
        query = twitter_small_queries[0]
        result = planner.search(query)
        assert result.stats.method == f"planned:{planner.choose(query)}"

    def test_selection_metrics_count_dispatches(self, twitter_small, twitter_small_weighter,
                                                twitter_small_queries):
        fresh = PlannedSealSearch(twitter_small, twitter_small_weighter, **KNOBS)
        for query in twitter_small_queries:
            fresh.search(query)
        metrics = fresh.metrics.as_dict()
        assert metrics["decisions"] == len(twitter_small_queries)
        assert sum(metrics["selections"].values()) == len(twitter_small_queries)
        for latency in metrics["filter_latency_ms"].values():
            assert latency["count"] > 0

    def test_index_size_sums_portfolio(self, planner):
        report = planner.index_size()
        total = sum(m.index_size().num_postings for m in planner.methods.values())
        assert report.num_postings == total


class TestConfiguration:
    def test_empty_portfolio_rejected(self, twitter_small):
        with pytest.raises(ConfigurationError):
            PlannedSealSearch(twitter_small, methods=())

    def test_unknown_method_rejected(self, twitter_small):
        with pytest.raises(ConfigurationError):
            PlannedSealSearch(twitter_small, methods=("token", "nope"))

    def test_planner_over_itself_rejected(self, twitter_small):
        with pytest.raises(ConfigurationError):
            PlannedSealSearch(twitter_small, methods=("planned",))

    def test_duplicate_methods_rejected(self, twitter_small):
        with pytest.raises(ConfigurationError):
            PlannedSealSearch(twitter_small, methods=("token", "token"))

    @pytest.mark.parametrize(
        "methods, knobs, unknown",
        [
            (None, {"granularty": 16}, "granularty"),            # a typo
            (None, {"mt": 4, "max_entries": 8}, "max_entries"),   # no R-tree in the default portfolio
            (("token", "spatial-first"), {"granularity": 16}, "granularity"),
            (None, {"backend": "python"}, "backend"),             # the option this library dropped
        ],
    )
    def test_knob_no_member_accepts_rejected_before_any_build(
        self, twitter_small, methods, knobs, unknown
    ):
        """A knob used to vanish silently when no portfolio member took it."""
        no_index = mock.patch(
            "repro.index.inverted.InvertedIndex.from_postings", side_effect=AssertionError
        )
        with no_index, pytest.raises(
            ConfigurationError, match=f"'planned'.*'{unknown}'"
        ) as error:
            build_method(twitter_small, "planned", methods=methods, **knobs)
        assert all(repr(knob) not in str(error.value) for knob in knobs if knob != unknown)

    def test_each_member_gets_the_knobs_it_accepts(self, twitter_small):
        planner = PlannedSealSearch(
            twitter_small[:50], methods=("token", "grid", "spatial-first"),
            granularity=16, max_entries=8,
        )
        assert planner.methods["grid"].granularity == 16
        assert planner.methods["spatial-first"].rtree.max_entries == 8

    def test_bad_coefficient_arity_rejected(self, twitter_small):
        planner = PlannedSealSearch(twitter_small, methods=("token", "grid"),
                                    granularity=16)
        with pytest.raises(ConfigurationError):
            planner.set_coefficients({"token": [1.0, 2.0]})

    def test_registry_and_facade_build_planned(self, twitter_small):
        method = build_method(twitter_small, "planned", granularity=16, mt=4)
        assert sorted(method.methods) == sorted(DEFAULT_METHODS)
        facade = SealSearch(
            [(o.region, o.tokens) for o in twitter_small],
            method="planned", granularity=16, mt=4,
        )
        assert isinstance(facade.method, PlannedSealSearch)


class TestRecordFitServe:
    @pytest.fixture()
    def recording_planner(self, tmp_path, twitter_small, twitter_small_weighter):
        return PlannedSealSearch(
            twitter_small, twitter_small_weighter,
            record_to=str(tmp_path / "rows.jsonl"), **KNOBS,
        )

    def test_rows_schema_and_flush(self, recording_planner, twitter_small_queries):
        for query in twitter_small_queries[:4]:
            recording_planner.search(query)
        path = recording_planner.flush_recording()
        rows = [json.loads(line) for line in open(path, encoding="utf-8")]
        assert len(rows) == 4
        for row in rows:
            assert set(row) == {"features", "chosen", "predicted", "observed"}
            assert set(row["observed"]) == set(DEFAULT_METHODS)
            for truth in row["observed"].values():
                assert truth["seconds"] >= 0.0
                assert set(truth) == {"lists", "entries", "candidates",
                                      "results", "seconds"}

    def test_fit_updates_coefficients(self, recording_planner, twitter_small_queries):
        for query in twitter_small_queries:
            recording_planner.search(query)
        before = {m: list(v) for m, v in recording_planner.coefficients.items()}
        fitted = recording_planner.fit()
        assert set(fitted) == set(DEFAULT_METHODS)
        assert all(len(v) == 4 for v in fitted.values())
        assert recording_planner.coefficients != before

    def test_coefficients_roundtrip(self, tmp_path, recording_planner,
                                    twitter_small_queries):
        for query in twitter_small_queries[:6]:
            recording_planner.search(query)
        fitted = recording_planner.fit()
        path = str(tmp_path / "coeffs.json")
        save_coefficients(fitted, path)
        assert load_coefficients(path) == {
            m: [float(v) for v in vals] for m, vals in fitted.items()
        }

    def test_load_coefficients_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": 99}')
        with pytest.raises(ConfigurationError):
            load_coefficients(str(path))

    def test_fit_from_path(self, recording_planner, twitter_small_queries):
        for query in twitter_small_queries[:5]:
            recording_planner.search(query)
        path = recording_planner.flush_recording()
        fitted = fit_coefficients(path)
        assert set(fitted) == set(DEFAULT_METHODS)

    def test_mispredicts_counted_under_perverse_coefficients(
        self, tmp_path, twitter_small, twitter_small_weighter, twitter_small_queries
    ):
        # Force the planner to always pick naive-worst estimates: zero
        # cost for seal, huge for everything else.  Recording measures
        # the truth, so mispredicts must accumulate.
        planner = PlannedSealSearch(
            twitter_small, twitter_small_weighter,
            record_to=str(tmp_path / "rows.jsonl"),
            coefficients={
                "seal": [0.0, 0.0, 0.0, 0.0],
                "token": [1e9, 0.0, 0.0, 0.0],
                "grid": [1e9, 0.0, 0.0, 0.0],
                "hash-hybrid": [1e9, 0.0, 0.0, 0.0],
            },
            **KNOBS,
        )
        for query in twitter_small_queries:
            assert planner.choose(query) == "seal"
            planner.search(query)
        assert planner.metrics.as_dict()["mispredicts"] > 0

    def test_default_coefficients_are_positive(self):
        from repro.core.engine import METHOD_REGISTRY

        assert set(DEFAULT_COEFFICIENTS) == set(DEFAULT_METHODS)
        for name, row in {**DEFAULT_COEFFICIENTS, "naive": UNFITTED_COEFFICIENTS}.items():
            assert name in METHOD_REGISTRY
            assert len(row) == len(COST_TERMS) == 4
            assert row[0] > 0 and all(c >= 0 for c in row), name

    def test_method_without_a_fitted_row_gets_the_old_tuple(self, twitter_small):
        planner = PlannedSealSearch(twitter_small, methods=("token", "naive"))
        assert planner.coefficients == {
            "token": list(DEFAULT_COEFFICIENTS["token"]),
            "naive": list(UNFITTED_COEFFICIENTS),
        }


def _rows(method, work_and_seconds):
    """Training rows for one method from ``((lists, entries, candidates),
    seconds)`` pairs."""
    return [
        {
            "predicted": {method: {"lists": l, "entries": e, "candidates": c}},
            "observed": {method: {"seconds": seconds}},
        }
        for (l, e, c), seconds in work_and_seconds
    ]


class TestFitIsNonNegativeAndRelative:
    """The first two fail at the parent's plain least squares."""

    def test_negative_least_squares_term_is_fitted_out(self):
        import numpy as np

        # seconds = 50 µs + 2 µs per list, plus an entries column that
        # runs *against* the residual: plain least squares prices an
        # entry below zero.
        rng = np.random.default_rng(5)
        lists = rng.integers(1, 20, size=200).astype(float)
        noise = rng.normal(0.0, 2e-6, size=200)
        entries = 40.0 * lists - noise * 4e6
        seconds = 5e-5 + 2e-6 * lists + noise
        rows = _rows("grid", zip(zip(lists, entries, entries), seconds))
        x = np.column_stack([np.ones(200), lists, entries, entries])
        plain, *_ = np.linalg.lstsq(x[:, :3], seconds, rcond=None)
        assert plain.min() < 0.0  # the parent's answer
        (fitted,) = fit_coefficients(rows).values()
        assert len(fitted) == 4 and all(c >= 0.0 for c in fitted)
        assert fitted[0] > 0.0
        predicted = x @ np.array(fitted)
        assert np.median(np.abs(predicted - seconds) / seconds) < 0.1

    def test_microsecond_intercept_survives_millisecond_rows(self):
        import numpy as np

        # seconds = 50 µs + 2 µs per list + 0.5 µs per candidate: 150
        # probes of 50-90 µs (± 5 %) and 50 full scans of 2.5-10 ms
        # (± 40 %).  Unweighted, the scans' millisecond residuals own
        # the fit and the intercept lands anywhere (-233 µs here).
        rng = np.random.default_rng(4)

        def seconds(lists, candidates, spread):
            exact = 5e-5 + 2e-6 * lists + 5e-7 * candidates
            return exact * rng.uniform(1.0 - spread, 1.0 + spread)

        probes = [
            ((float(l), float(e), float(e)), seconds(l, e, 0.05))
            for l, e in zip(rng.integers(1, 7, size=150), rng.integers(5, 60, size=150))
        ]
        scans = [
            ((0.0, 0.0, float(n)), seconds(0, n, 0.4))
            for n in rng.integers(5_000, 20_000, size=50)
        ]
        (fitted,) = fit_coefficients(_rows("token", probes + scans)).values()
        assert all(c >= 0.0 for c in fitted)
        assert abs(fitted[0] - 5e-5) <= 0.2 * 5e-5


    def test_rows_weigh_by_the_query_not_by_the_fitted_method(self):
        # Two methods, the same predicted work on every query.  "steady"
        # always takes 50 µs; "tailed" takes 50 µs on half of the queries
        # and 500 µs on the other half, and nothing predicted tells them
        # apart.  Every row weighs 1 / 50 µs (its fastest method), so
        # "tailed" is priced at its mean, 275 µs — weighing its rows by
        # its own seconds would price it at 54 µs, level with "steady".
        work = {"lists": 2.0, "entries": 10.0, "candidates": 10.0}
        rows = [
            {
                "predicted": {"steady": work, "tailed": work},
                "observed": {"steady": {"seconds": 5e-5},
                             "tailed": {"seconds": 5e-4 if i % 2 else 5e-5}},
            }
            for i in range(40)
        ]
        fitted = fit_coefficients(rows)
        price = {
            name: c[0] + 2.0 * c[1] + 10.0 * (c[2] + c[3]) for name, c in fitted.items()
        }
        assert price["steady"] == pytest.approx(5e-5)
        assert price["tailed"] == pytest.approx(2.75e-4)


MALFORMED = {
    "no-coefficients": {"schema": 1},
    "not-a-number": {"schema": 1, "coefficients": {"token": ["a", 1, 2, 3]}},
    "not-a-mapping": {"schema": 1, "coefficients": [1, 2]},
    "two-values": {"schema": 1, "coefficients": {"token": [1, 2]}},
    "boolean": {"schema": 1, "coefficients": {"token": [True, 1, 2, 3]}},
    "not-finite": {"schema": 1, "coefficients": {"token": [1, 2, float("nan"), 3]}},
    "past-the-floats": {"schema": 1, "coefficients": {"token": [1, 2, 10 ** 400, 3]}},
    "not-json": "{",
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
class TestMalformedCoefficientsFile:
    """Outside input: a bad file is a ``ConfigurationError`` naming it —
    ``error: …`` and exit 2 from the CLI — never a traceback."""

    @pytest.fixture()
    def bad(self, tmp_path, case):
        path = tmp_path / "bad.json"
        document = MALFORMED[case]
        path.write_text(document if isinstance(document, str) else json.dumps(document))
        return path

    def test_load_raises_configuration_error(self, bad, case):
        with pytest.raises(ConfigurationError) as caught:
            load_coefficients(str(bad))
        assert "bad.json" in str(caught.value)
        if "token" in json.dumps(MALFORMED[case]):
            assert "'token'" in str(caught.value)

    def test_build_exits_2_with_one_error_line(self, bad, tmp_path, capsys):
        from repro.cli import main
        from repro.io.corpus_io import save_corpus

        corpus = tmp_path / "corpus.jsonl"
        save_corpus(generate_twitter(40, seed=1), corpus)
        code = main(["build", str(corpus), "--method", "planned", "--coefficients", str(bad),
                     "--out", str(tmp_path / "engine.pkl")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert not (tmp_path / "engine.pkl").exists()


class TestStatsAttribution:
    """PR 7's satellite bugfix: method labels + per-source breakdowns."""

    def test_fixed_method_stamps_registry_name(self, fixed_methods,
                                               twitter_small_queries):
        result = fixed_methods["token"].search(twitter_small_queries[0])
        assert result.stats.method == "token"

    def test_copy_preserves_attribution(self):
        stats = SearchStats(method="token", lists_probed=3)
        stats.per_source.append(SearchStats(method="grid", lists_probed=1))
        clone = stats.copy()
        assert clone.method == "token"
        assert clone.per_source[0].method == "grid"
        clone.per_source[0].lists_probed = 99
        assert stats.per_source[0].lists_probed == 1  # deep, not shared

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
        result = engine.search_query(twitter_small_queries[0])
        stats = result.stats
        assert stats.method == "segmented:token"
        assert len(stats.per_source) >= 2
        for source in stats.per_source:
            assert source.method == "token"
        # The aggregate is exactly the sum of its sources — attribution
        # came back without breaking the totals.
        assert stats.lists_probed == sum(s.lists_probed for s in stats.per_source)
        assert stats.candidates == sum(s.candidates for s in stats.per_source)


class TestSegmentedChurn:
    def test_planned_segmented_matches_token_segmented_under_churn(
        self, twitter_small, twitter_small_queries
    ):
        pairs = [(o.region, o.tokens) for o in twitter_small[:200]]
        planned = SegmentedSealSearch(pairs, "planned", buffer_capacity=64, **KNOBS)
        oracle = SegmentedSealSearch(pairs, "token", buffer_capacity=64)
        for engine in (planned, oracle):
            for obj in twitter_small[200:260]:
                engine.insert(obj.region, obj.tokens)
            for oid in (3, 17, 42, 210):
                engine.delete(oid)
            engine.flush()
        for query in _mixed_queries(list(twitter_small_queries)):
            assert (
                planned.search_query(query).answers
                == oracle.search_query(query).answers
            )

    def test_collect_metrics_aggregates_segments(self, twitter_small,
                                                 twitter_small_queries, monkeypatch):
        # Segments this small hold planners only above the tier boundary.
        monkeypatch.setattr("repro.exec.segments.FULL_INDEX_MIN_OBJECTS", 0)
        pairs = [(o.region, o.tokens) for o in twitter_small]
        engine = SegmentedSealSearch(pairs[:300], "planned", buffer_capacity=512,
                                     merge_fanout=8, **KNOBS)
        for region, tokens in pairs[300:]:
            engine.insert(region, tokens)
        engine.flush()
        assert sum(1 for _ in iter_planners(engine)) >= 2
        for query in twitter_small_queries[:4]:
            engine.search_query(query)
        metrics = collect_planner_metrics(engine)
        # Every segment dispatches per query, so decisions >= queries.
        assert metrics["decisions"] >= 4
        assert sum(metrics["selections"].values()) == metrics["decisions"]


class TestServiceAndSnapshots:
    def test_service_metrics_planner_block(self, twitter_small, twitter_small_queries):
        from repro.service import QueryService

        facade = SealSearch(
            [(o.region, o.tokens) for o in twitter_small], method="planned", **KNOBS
        )
        with QueryService(facade, enable_cache=False) as service:
            for query in twitter_small_queries[:5]:
                service.query(query)
            metrics = service.metrics()
        block = metrics["planner"]
        assert block is not None
        assert block["decisions"] == 5
        assert set(block) == {"decisions", "selections", "mispredicts",
                              "filter_latency_ms"}
        json.dumps(metrics)  # the whole document stays JSON-ready

    def test_service_metrics_planner_none_without_planner(self, twitter_small):
        from repro.service import QueryService

        facade = SealSearch([(o.region, o.tokens) for o in twitter_small],
                            method="token")
        with QueryService(facade, enable_cache=False) as service:
            assert service.metrics()["planner"] is None

    def test_from_data_defaults_to_planner(self, twitter_small, twitter_small_queries):
        from repro.service import QueryService

        service = QueryService.from_data(
            [(o.region, o.tokens) for o in twitter_small],
            engine_params=KNOBS, enable_cache=False,
        )
        with service:
            result = service.query(twitter_small_queries[0])
            assert result.stats.method.startswith("planned:")
            assert service.metrics()["planner"]["decisions"] == 1

    def test_snapshot_roundtrip(self, tmp_path, planner, twitter_small_queries):
        from repro.io import load_engine, save_engine
        from repro.io.snapshot import read_manifest

        path = tmp_path / "planned.pkl"
        save_engine(planner, path)
        manifest = read_manifest(path)
        assert manifest["kind"] == "planned"
        assert sorted(manifest["methods"]) == sorted(DEFAULT_METHODS)
        loaded = load_engine(path)
        for query in twitter_small_queries[:4]:
            assert loaded.search(query).answers == planner.search(query).answers
        # Fresh counters, recording off: transient state is not persisted.
        assert loaded.metrics.as_dict()["decisions"] == 4
        assert loaded.flush_recording() is None

    def test_one_verifier_for_the_whole_portfolio(self, tmp_path, planner, fixed_methods,
                                                  twitter_small_queries):
        """Members verify through the planner's instance — one set of
        token totals and coordinate columns, not five — before and after
        a snapshot round-trip, and a member searched on its own (the
        ledger's regret probe) still answers like the stand-alone build."""
        from repro.io import load_engine, save_engine

        path = tmp_path / "planned.pkl"
        save_engine(planner, path)
        for engine in (planner, load_engine(path)):
            for name, member in engine.methods.items():
                assert member.verifier is engine.verifier
                for query in _mixed_queries(twitter_small_queries):
                    assert member.search(query).answers == fixed_methods[name].search(query).answers

    def test_network_server_serves_planned_engine(self, twitter_small,
                                                  twitter_small_queries, monkeypatch):
        from repro.service import NetworkClient, NetworkServer, QueryService

        # A corpus this small is planned only above the tier boundary.
        monkeypatch.setattr("repro.exec.segments.FULL_INDEX_MIN_OBJECTS", 0)
        pairs = [(o.region, o.tokens) for o in twitter_small]
        engine = SegmentedSealSearch(pairs, "planned", buffer_capacity=150, **KNOBS)
        with QueryService(engine, enable_cache=False) as service:
            with NetworkServer(service) as server:
                host, port = server.address
                with NetworkClient(host, port, timeout=10.0) as client:
                    for query in twitter_small_queries[:5]:
                        networked = client.query(query)
                        direct = service.query(query)
                        assert networked.answers == direct.answers
            assert service.metrics()["planner"]["decisions"] > 0
