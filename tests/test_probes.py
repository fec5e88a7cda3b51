"""One ``probes()`` per filter: what a query opens is said once.

``candidates``, the planner's work estimate and the I/O model all read a
signature filter's ``probes(query)`` (see :mod:`repro.filters.base`).
These tests pin that the single description is the true one:

* a golden table written by the commit *before* ``probes`` existed
  (``tests/fixtures/make_planner_golden.py``) — planner choice, probe
  accounting, answers and every member's estimate as exact floats —
  replays on both index backends;
* per filter × backend × query shape, ``probes`` run through the one
  probe loop is ``candidates``, statistics included;
* the planner walks the chosen member's lists once, and still calls a
  member that derived no probes with two arguments;
* probes are in-process plumbing: they reach no exported document.
"""

from __future__ import annotations

import json
from pathlib import Path
from unittest import mock

import pytest

from repro import Query, Rect, build_method
from repro.cli import main
from repro.core.stats import SearchStats
from repro.datasets import generate_twitter
from repro.exec.planner import DEFAULT_METHODS, PlannedSealSearch
from repro.filters.base import FULL_SCAN
from repro.filters.hierarchical_filter import HierarchicalFilter
from repro.index.columnar import BACKENDS
from repro.io.corpus_io import save_queries
from repro.io.snapshot import save_engine
from repro.service.protocol import query_from_wire
from repro.signatures.prefix import select_prefix

GOLDEN = json.loads(
    Path(__file__).with_name("fixtures").joinpath("planner_golden.json").read_text("utf-8")
)
COUNTERS = ("lists_probed", "entries_retrieved", "entries_matched")


@pytest.fixture(scope="module")
def corpus():
    return generate_twitter(**{**GOLDEN["corpus"], "space": Rect(*GOLDEN["corpus"]["space"])})


@pytest.fixture(scope="module", params=BACKENDS)
def planner(request, corpus):
    return PlannedSealSearch(corpus, backend=request.param, **GOLDEN["knobs"])


def _only(planner: PlannedSealSearch, chosen: str) -> dict:
    """Coefficients under which ``chosen`` always wins the plan."""
    return {
        name: [0.0 if name == chosen else 1e9, 0.0, 0.0, 0.0] for name in planner.methods
    }


# ----------------------------------------------------------------------
# (a) the parent commit's behaviour, replayed
# ----------------------------------------------------------------------


def test_golden_table_from_parent_commit(planner):
    assert {row["chosen"] for row in GOLDEN["rows"]} == set(DEFAULT_METHODS)
    for row in GOLDEN["rows"]:
        query = query_from_wire(row["query"])
        estimates = {e.method: [e.lists, e.entries, e.candidates] for e in planner.plan(query)}
        assert estimates == row["estimates"], row["query"]  # exact floats
        result = planner.search(query)
        stats = result.stats
        assert stats.method == f"planned:{row['chosen']}"
        for counter in COUNTERS + ("candidates",):
            assert getattr(stats, counter) == row[counter], (counter, row["query"])
        assert result.answers == row["answers"]


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


@pytest.fixture(scope="module")
def filters(planner, corpus):
    """The four portfolio filters plus a bucketed hybrid (colliding keys)."""
    bucketed = build_method(
        corpus, "hash-hybrid", planner.weighter, granularity=64, num_buckets=97,
        backend=planner.methods["hash-hybrid"].backend,
    )
    return {**planner.methods, "hash-hybrid-bucketed": bucketed}


@pytest.mark.parametrize("name", DEFAULT_METHODS + ("hash-hybrid-bucketed",))
def test_probes_through_the_loop_is_candidates(filters, corpus, name):
    method = filters[name]
    seen_full_scan = seen_probes = False
    for shape, query in _shapes(corpus).items():
        probes = method.probes(query)
        stats = SearchStats()
        got = method.candidates(query, stats)
        if probes is FULL_SCAN:
            seen_full_scan = True
            assert got == method.all_oids(), shape
            assert [getattr(stats, c) for c in COUNTERS] == [0, 0, 0], shape
            assert method.candidates(query, SearchStats(), probes) == method.all_oids()
            continue
        seen_probes = True
        elements, bound, t_bound = probes
        assert len(set(elements)) == len(elements), shape
        looped, handed = SearchStats(), SearchStats()
        via_loop = method.index.union_heads(elements, bound, t_bound, looped)
        via_handed = method.candidates(query, handed, probes)
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


# ----------------------------------------------------------------------
# (c) the planner walks the winner's lists once
# ----------------------------------------------------------------------


def test_seal_grids_are_walked_once_per_planned_search(planner):
    seal = planner.methods["seal"]
    queries = [query_from_wire(row["query"]) for row in GOLDEN["rows"] if row["chosen"] == "seal"]
    walked = []
    real = HierarchicalFilter._region_cells

    def counting(grids, region):
        walked.append(grids)
        return real(grids, region)

    with mock.patch.dict(planner.coefficients, _only(planner, "seal")), mock.patch.object(
        HierarchicalFilter, "_region_cells", staticmethod(counting)
    ):
        for query in queries:
            signature = seal.textual.query_signature(query)
            prefix = signature[
                : select_prefix([w for _, w in signature], seal.textual.threshold(query))
            ]
            with_grids = sum(token in seal.token_grids for token, _ in prefix)
            assert with_grids > 0
            walked.clear()
            result = planner.search(query)
            assert result.stats.method == "planned:seal"
            assert len(walked) == with_grids  # not 2×: plan() derived them, candidates reused them


def test_member_without_probes_is_called_with_two_arguments(corpus):
    planner = PlannedSealSearch(
        corpus, methods=("grid", "hash-hybrid", "keyword-first", "naive"),
        granularity=GOLDEN["knobs"]["granularity"],
    )
    query = query_from_wire(GOLDEN["rows"][0]["query"])
    expected = planner.methods["naive"].search(query).answers
    for name, member in planner.methods.items():
        assert member.estimate_work(query)[3] is None
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
    for name in ("token", "seal"):
        member = planner.methods[name]
        received = []

        def spy(*args, _real=member.candidates):
            received.append(args)
            return _real(*args)

        with mock.patch.dict(planner.coefficients, _only(planner, name)), mock.patch.object(
            member, "candidates", spy
        ):
            planner.search(query)
        ((got_query, _, probes),) = received
        assert got_query is query
        assert probes == member.probes(query)


# ----------------------------------------------------------------------
# (d) probes are plumbing, not output
# ----------------------------------------------------------------------


def test_probes_reach_no_exported_document(planner, tmp_path, capsys):
    queries = [query_from_wire(row["query"]) for row in GOLDEN["rows"][:3]]
    keys = {"lists", "entries", "candidates", "cost_s"}
    for query in queries:
        estimates = planner.plan(query)
        assert any(estimate.probes is not None for estimate in estimates)
        for estimate in estimates:
            assert set(estimate.as_dict()) == keys
            assert "probes" not in repr(estimate)
        explained = planner.explain(query)
        assert all(set(estimate) == keys for estimate in explained["estimates"].values())
        assert "probes" not in json.dumps(explained)

    engine, workload, rows = tmp_path / "planned.pkl", tmp_path / "q.jsonl", tmp_path / "rows.jsonl"
    save_engine(planner, engine)
    save_queries(queries, workload)
    assert main(["plan", str(engine), "--queries", str(workload), "--json",
                 "--record", str(rows)]) == 0
    decisions = json.loads(capsys.readouterr().out)["queries"]
    assert "probes" not in json.dumps(decisions)  # (the tmp path spells it)
    assert all(
        set(estimate) == keys
        for decision in decisions
        for estimate in decision["estimates"].values()
    )
    recorded = rows.read_text("utf-8")
    assert len(recorded.splitlines()) == len(queries) and "probes" not in recorded
    for line in recorded.splitlines():
        assert all(set(estimate) == keys for estimate in json.loads(line)["predicted"].values())
