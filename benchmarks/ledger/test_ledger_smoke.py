"""Tier-1 smoke of the perf ledger: all four workloads, traced, at toy scale.

Checks the contract, not the numbers: every metric ``BENCHMARK.json``
names is emitted, finite and well named; the span tree is well formed
and its self times add up; ``compare`` tells worse from ok from
unresolved and refuses reports of different inputs; the pinned
fingerprints hold.
"""

from __future__ import annotations

import copy
import json
import math
import re
from collections import defaultdict

import pytest

from benchmarks.ledger import inputs
from benchmarks.ledger.cli import run_workload
from benchmarks.ledger.harness import ROOT
from benchmarks.ledger.metrics import DEFAULT_SEED, REGISTRY, TOY, WORKLOADS
from benchmarks.ledger.report import Incomparable, as_document, compare, driver_line
from benchmarks.ledger.spans import check_tree, self_times

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def results():
    return {
        workload: run_workload(workload, DEFAULT_SEED, 2, True, TOY)
        for workload in WORKLOADS
    }


def test_contract_matches_registry():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    assert CONTRACT["paths"] == ["benchmarks/ledger"]
    assert any(m["name"] == "setup_s" for m in CONTRACT["end_to_end"])
    for block in ("end_to_end", "per_layer"):
        for entry in CONTRACT[block]:
            metric = REGISTRY[entry["name"]]
            assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", metric.name)
            assert (entry["unit"], entry["better"]) == (metric.unit, metric.better)
            if block == "end_to_end":
                # The driver's bound (across seeds) is never the tighter one.
                assert metric.bound <= entry["bound"] <= 0.25
                assert set(metric.workloads) == set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted(results, workload):
    result = results[workload]
    assert result.failed == 0 and result.attempted > 0
    for trace, block in ((False, "end_to_end"), (True, "per_layer")):
        line = json.loads(driver_line(result, trace))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
        assert set(line["metrics"]) == {entry["name"] for entry in CONTRACT[block]}
        for name, metric in line["metrics"].items():
            assert math.isfinite(metric["value"]), name
            if block == "end_to_end":
                assert metric["value"] > 0, name
    # Every metric the registry assigns to this workload was measured.
    missing = [m.name for m in REGISTRY.values()
               if workload in m.workloads and m.name not in result.metrics]
    assert not missing


@pytest.mark.parametrize("workload", WORKLOADS)
def test_span_tree_is_well_formed(results, workload):
    with open(ROOT / results[workload].spans_path) as handle:
        rows = [json.loads(line) for line in handle]
    spans = [[r["name"], r["start"], r["end"], r["parent"], r["request_id"]] for r in rows]
    assert [r["id"] for r in rows] == list(range(len(rows)))
    assert spans and check_tree(spans) == []

    def root_of(index):
        while spans[index][3] is not None:
            index = spans[index][3]
        return index

    own_by_root = defaultdict(float)
    for index, own in enumerate(self_times(spans)):
        own_by_root[root_of(index)] += own
    for root, own in own_by_root.items():
        _, start, end, _, _ = spans[root]
        assert own == pytest.approx(end - start, abs=1e-9)

    # The planner's own dispatch ran: one plan and one member probe per
    # engine call, both directly under it.
    children = defaultdict(list)
    for name, _, _, parent, _ in spans:
        children[parent].append(name)
    for index, span in enumerate(spans):
        if span[0] == "exec.pipeline.search":
            assert children[index] == [
                "exec.planner.plan", "filters.candidates", "core.verification.verify"]


@pytest.fixture
def reports(results, tmp_path):
    """``(document, write)``: a report of the toy runs, and a function
    that writes a (modified) copy and returns its path."""
    document = as_document(list(results.values()))
    # Verdicts are under test here, not the toy passes' own noise.
    for workload in document["workloads"].values():
        for metric in workload["metrics"].values():
            metric["q1"] = metric["q3"] = metric["value"]

    def write(name, changed=None):
        path = tmp_path / name
        path.write_text(json.dumps(document if changed is None else changed))
        return str(path)

    return document, write


def _verdicts(out):
    """``{(workload, metric): verdict}`` of one ``compare`` printout."""
    return {
        tuple(line.split()[:2]): line.split("  (base")[0].split()[-1]
        for line in out.splitlines()[1:]
    }


def test_compare_marks_ok_worse_and_unresolved(reports, capsys):
    document, write = reports
    a = write("a.json")
    assert compare(a, write("same.json")) == 0
    same = _verdicts(capsys.readouterr().out)
    assert same["hot_zipf", "query_p50_ms"] == "ok"
    assert same["hot_zipf", "index_bytes_per_object"] == "ok"
    # One sample of a timing — one build per run, one churn script — has
    # no spread to judge by.
    assert same["hot_zipf", "setup_s"] == "unresolved"
    assert same["churn_durable", "query_p50_ms"] == "unresolved"
    assert set(same.values()) == {"ok", "unresolved"}

    changed = copy.deepcopy(document)
    slow = changed["workloads"]["hot_zipf"]["metrics"]
    for key in ("value", "q1", "q3"):
        slow["query_p50_ms"][key] *= 1.2          # a timing, beyond 10 %
        slow["query_qps"][key] *= 0.95            # a timing, within 10 %
        slow["index_bytes_per_object"][key] += 1  # an exact count: any growth
    assert compare(a, write("b.json", changed)) == 2
    verdicts = _verdicts(capsys.readouterr().out)
    assert verdicts["hot_zipf", "query_p50_ms"] == "worse"
    assert verdicts["hot_zipf", "query_qps"] == "ok"
    assert verdicts["hot_zipf", "index_bytes_per_object"] == "worse"

    noisy = copy.deepcopy(document)
    wide = noisy["workloads"]["hot_zipf"]["metrics"]["query_p50_ms"]
    wide["q1"], wide["q3"] = wide["value"] * 0.9, wide["value"] * 1.1
    assert compare(a, write("noisy.json", noisy)) == 0
    assert _verdicts(capsys.readouterr().out)["hot_zipf", "query_p50_ms"] == "unresolved"


@pytest.mark.parametrize("path, value", [
    (("seed",), 8),
    (("scale",), "canonical"),
    (("passes",), 5),
    (("fingerprint", "ops"), "0" * 64),
])
def test_compare_refuses_reports_of_different_inputs(reports, path, value):
    document, write = reports
    other = copy.deepcopy(document)
    node = other["workloads"]["fig16_large"]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(Incomparable, match=path[0]):
        compare(write("a.json"), write("b.json", other))


def test_compare_refuses_a_missing_workload_or_metric(reports):
    document, write = reports
    a = write("a.json")
    fewer = copy.deepcopy(document)
    del fewer["workloads"]["churn_durable"]
    with pytest.raises(Incomparable, match="churn_durable"):
        compare(a, write("fewer.json", fewer))
    thinner = copy.deepcopy(document)
    del thinner["workloads"]["fig16_large"]["metrics"]["batch_qps"]
    with pytest.raises(Incomparable, match="batch_qps is missing from B"):
        compare(a, write("thinner.json", thinner))


def test_tracing_leaves_the_planner_as_it_was():
    from repro import TokenWeighter, build_method
    from benchmarks.ledger.proxies import planner_spans
    from benchmarks.ledger.spans import SpanRecorder

    corpus = inputs.make_corpus(TOY.objects, DEFAULT_SEED)
    planner = build_method(corpus, "planned", TokenWeighter(obj.tokens for obj in corpus))
    query = inputs.make_queries(corpus, "large", 4, 0.4, 0.4, DEFAULT_SEED)[0]
    recorder = SpanRecorder()
    before = planner.metrics.as_dict()
    with planner_spans(planner, recorder), recorder.request(0, "client.query"):
        traced = planner.search(query)
    assert [span[0] for span in recorder.spans] == [
        "client.query", "exec.planner.plan", "filters.candidates"]
    assert planner.metrics.as_dict() != before      # the real dispatch counted it
    assert "plan" not in vars(planner)
    assert all("candidates" not in vars(member) for member in planner.methods.values())
    assert planner.search(query).answers == traced.answers
    assert len(recorder.spans) == 3


def test_pinned_fingerprints_guard_the_generators(results):
    pinned = json.loads(inputs.FINGERPRINTS_PATH.read_text())
    for workload, result in results.items():
        assert pinned[TOY.name][str(DEFAULT_SEED)][workload] == result.fingerprint
    moved = dict(results["hot_zipf"].fingerprint, corpus="0" * 64)
    with pytest.raises(inputs.FingerprintMismatch):
        inputs.check_fingerprint("hot_zipf", TOY, DEFAULT_SEED, moved)
