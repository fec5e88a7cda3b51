"""The ``planned`` default wiring (ROADMAP item 4's loose end).

``QueryService.from_data`` and ``build`` now default to the cost-model
planner.  The contract that makes the default safe is answer identity:
a service on the default engine must return exactly what a service on
any fixed-method engine returns, query for query.  These tests pin that
differentially, plus the CLI default itself.
"""

from __future__ import annotations

import pytest

from repro import build_method
from repro.cli import main
from repro.io.corpus_io import save_corpus, save_queries
from repro.io.snapshot import load_engine
from repro.service import QueryService

FIXED_METHODS = ("seal", "token", "spatial-first")


def _answers(service, queries):
    return [sorted(service.query(q).answers) for q in queries]


@pytest.fixture(scope="module")
def data(twitter_small):
    return [(obj.region, obj.tokens) for obj in twitter_small]


class TestServiceDefault:
    def test_from_data_defaults_to_planner(self, data):
        with QueryService.from_data(data) as service:
            assert [type(method).__name__ for method in service.engine.segment_methods()] == [
                "PlannedSealSearch"]

    @pytest.mark.parametrize("method", FIXED_METHODS)
    def test_default_service_answers_match_fixed_method(
        self, data, twitter_small_queries, method
    ):
        queries = list(twitter_small_queries)
        with QueryService.from_data(data, enable_cache=False) as planned:
            planned_answers = _answers(planned, queries)
        with QueryService.from_data(
            data, method=method, enable_cache=False
        ) as fixed:
            assert planned_answers == _answers(fixed, queries)

    def test_default_service_answers_match_bare_engine(
        self, twitter_small, twitter_small_queries, data
    ):
        engine = build_method(twitter_small, "seal")
        expected = [sorted(engine.search(q).answers) for q in twitter_small_queries]
        with QueryService.from_data(data, enable_cache=False) as service:
            assert _answers(service, list(twitter_small_queries)) == expected


class TestCliDefault:
    def test_build_without_method_builds_planner(
        self, tmp_path, twitter_small, twitter_small_queries, capsys
    ):
        corpus = tmp_path / "c.jsonl"
        save_corpus(twitter_small, corpus)
        snapshot = tmp_path / "e.pkl"
        assert main(["build", str(corpus), "--out", str(snapshot)]) == 0
        assert "planned" in capsys.readouterr().out
        engine = load_engine(snapshot)
        assert type(engine).__name__ == "PlannedSealSearch"
        oracle = build_method(twitter_small, "seal")
        for query in twitter_small_queries:
            assert sorted(engine.search(query).answers) == sorted(
                oracle.search(query).answers
            )

    def test_serve_on_default_snapshot(
        self, tmp_path, twitter_small, twitter_small_queries, capsys
    ):
        corpus = tmp_path / "c.jsonl"
        save_corpus(twitter_small, corpus)
        workload = tmp_path / "q.jsonl"
        save_queries(list(twitter_small_queries), workload)
        snapshot = tmp_path / "e.pkl"
        assert main(["build", str(corpus), "--out", str(snapshot)]) == 0
        capsys.readouterr()
        rc = main(["serve", str(snapshot), "--queries", str(workload),
                   "--threads", "2"])
        assert rc == 0
        assert "PlannedSealSearch" in capsys.readouterr().out
