"""Planner benchmark — adaptive dispatch vs every fixed filter method.

The planner's pitch: on a *mixed* workload no fixed method wins, because
each filter has a regime where it degrades — the token filter on
text-vacuous thresholds (``τT → 0`` degenerates it to a full scan), the
spatial filters on ``τR = 0``, the hybrids on either, and between the
extremes the Figure-12/14 crossovers move the optimum around.  A planner
that spends microseconds estimating each method's work per query should
track the per-query optimum and beat every fixed choice on the mix.

The workload here has four regimes in equal parts (large-region,
small-region, spatial-only ``τT = 0``, textual-only ``τR = 0``), the
planner goes through the full **record → fit → serve** workflow on a
disjoint training mix first, and the bench asserts the headline claims
the README quotes:

* planner suite time ≤ 1/0.95 × the best fixed method (within 5% of an
  oracle that somehow knew the best *fixed* choice in advance), and
* ≥ 1.5× faster than the worst fixed method (the cost of committing to
  one filter on a mixed workload).

A second test guards what planning itself costs, as a ratio so that it
holds on any host: the suite time of ``planner.plan`` over the suite
time of ``planner.search`` on the large-region regime — the paper's
Figure 16 shape, where the filters are fastest and planning weighs most —
must stay ≤ :data:`PLAN_SHARE_BOUND`.

Answers are bit-identical across all methods by construction (shared
exact verification); ``tests/test_planner.py`` pins that differentially.
"""

from __future__ import annotations

import os
import tempfile
import time

import pytest

from repro.bench import format_table
from repro.datasets import generate_queries
from repro.exec.planner import PlannedSealSearch

from benchmarks.conftest import BENCH_QUERIES, emit, report_json

#: The fixed methods the planner is raced against — exactly its portfolio,
#: at the canonical matrix configurations.
PORTFOLIO = {
    "token": "token",
    "grid": "grid-256",
    "hash-hybrid": "hybrid-256",
    "seal": "seal",
}


#: ``plan()``'s share of a planned search on large-region queries.  One
#: textual prefix and four O(|prefix|) estimates read 0.23-0.34 at
#: N = 10 000 and 0.19-0.31 at the smoke's N = 3 000 (the fit, and so the
#: members searched, varies run to run); sorting the signature per member
#: and walking ``seal``'s grids to price it read 0.38-0.52 and 0.42-0.52.
#: The denominator holds the chosen members' time, so better choices
#: raise the share too — always answering with the fastest member would
#: read 0.32 — which is why the bound sits between the two ranges and
#: not at the lower one's median: revisit it when plan quality moves.
PLAN_SHARE_BOUND = 0.35

def _mixed_workload(corpus, *, seed: int):
    """Four equal regimes; each is some fixed method's bad day.

    The spatial-only and textual-only regimes carry a vacuous threshold
    on the other axis, which degenerates every filter that signatures on
    that axis to a full corpus scan (see the filters' ``_is_degenerate``)
    — the sharpest, scale-independent form of the regime crossings in
    Figures 12 and 14.
    """
    large = generate_queries(corpus, "large", BENCH_QUERIES, seed=seed,
                             tau_r=0.4, tau_t=0.4)
    small = generate_queries(corpus, "small", BENCH_QUERIES, seed=seed + 1,
                             tau_r=0.4, tau_t=0.4)
    spatial_only = [q.with_thresholds(tau_r=0.3, tau_t=0.0) for q in small]
    textual_only = [q.with_thresholds(tau_r=0.0, tau_t=0.3) for q in small]
    return {
        "large": list(large),
        "small": list(small),
        "spatial-only": spatial_only,
        "textual-only": textual_only,
    }


@pytest.fixture(scope="module")
def fixed_methods(twitter_method_matrix):
    return {name: twitter_method_matrix[key] for name, key in PORTFOLIO.items()}


@pytest.fixture(scope="module")
def fitted_planner(twitter_corpus, twitter_weighter, twitter_method_matrix):
    """A planner over the portfolio, calibrated record → fit → serve.

    Knobs mirror the matrix configurations exactly, so the planner's
    sub-methods and the fixed baselines are the same indexes
    parameter-for-parameter and the race is purely about dispatch.
    """
    knobs = {
        **twitter_method_matrix.knobs("grid-256"),
        **twitter_method_matrix.knobs("hybrid-256"),
        **twitter_method_matrix.knobs("seal"),
    }
    record_path = os.path.join(tempfile.mkdtemp(prefix="planner-bench-"),
                               "training.jsonl")
    planner = PlannedSealSearch(
        twitter_corpus, twitter_weighter,
        methods=tuple(PORTFOLIO), record_to=record_path, **knobs,
    )
    # Record: a disjoint training mix (different seed), every portfolio
    # method measured per query.  Fit: least-squares coefficients from
    # those observations.  Serve: recording off, fitted model on.
    training = [q for regime in _mixed_workload(twitter_corpus, seed=29).values()
                for q in regime]
    for query in training:
        planner.search(query)
    planner.flush_recording()
    planner.fit()
    planner._record_path = None
    return planner


def _suite_ms(method, workload) -> dict:
    """Total wall ms per regime (and overall) for one method."""
    from repro.bench import measure_workload

    per_regime = {}
    for regime, queries in workload.items():
        measurement = measure_workload(method, queries)
        per_regime[regime] = measurement.elapsed_ms * measurement.queries
    per_regime["total"] = sum(per_regime.values())
    return per_regime


@pytest.mark.benchmark(group="planner")
def test_planner_vs_fixed_methods(benchmark, twitter_corpus, fixed_methods,
                                  fitted_planner):
    workload = _mixed_workload(twitter_corpus, seed=31)

    def run():
        suites = {name: _suite_ms(method, workload)
                  for name, method in fixed_methods.items()}
        suites["planned"] = _suite_ms(fitted_planner, workload)
        return suites

    suites = benchmark.pedantic(run, rounds=1, iterations=1)

    planner_ms = suites["planned"]["total"]
    fixed_totals = {name: suites[name]["total"] for name in fixed_methods}
    best_name = min(fixed_totals, key=fixed_totals.get)
    worst_name = max(fixed_totals, key=fixed_totals.get)
    best_ms, worst_ms = fixed_totals[best_name], fixed_totals[worst_name]

    regimes = [r for r in workload] + ["total"]
    rows = {name: [round(suite[r], 2) for r in regimes]
            for name, suite in suites.items()}
    emit(format_table(
        "Planner vs fixed methods: suite wall ms by regime "
        f"(mixed workload, {sum(len(q) for q in workload.values())} queries)",
        "method", regimes, rows,
    ))

    selections = fitted_planner.metrics.as_dict()["selections"]
    data = {
        "planner_ms": round(planner_ms, 3),
        "best_fixed": best_name,
        "best_fixed_ms": round(best_ms, 3),
        "worst_fixed": worst_name,
        "worst_fixed_ms": round(worst_ms, 3),
        "speedup_vs_worst": round(worst_ms / planner_ms, 3),
        "ratio_vs_best": round(best_ms / planner_ms, 3),
        "selections": selections,
        "per_method_suite_ms": {n: round(v, 3) for n, v in fixed_totals.items()},
    }
    report_json("bench_planner.json", "Planner vs fixed methods (mixed workload)", data)

    # The headline claims, enforced: within 5% of the best fixed method,
    # at least 1.5x over the worst.
    assert planner_ms <= best_ms / 0.95, (
        f"planner {planner_ms:.1f} ms lost to best fixed "
        f"{best_name} {best_ms:.1f} ms by more than 5%"
    )
    assert worst_ms / planner_ms >= 1.5, (
        f"planner {planner_ms:.1f} ms is not >=1.5x faster than worst fixed "
        f"{worst_name} {worst_ms:.1f} ms"
    )


def test_plan_share_of_planned_search(twitter_corpus, fitted_planner):
    """``plan()`` grew back" fails here, whatever the host's speed."""
    queries = _mixed_workload(twitter_corpus, seed=31)["large"]

    def suite_seconds(call) -> float:
        def once() -> float:
            started = time.perf_counter()
            for query in queries:
                call(query)
            return time.perf_counter() - started

        once()  # warm
        return min(once() for _ in range(25))

    plan_s, search_s = suite_seconds(fitted_planner.plan), suite_seconds(fitted_planner.search)
    share = plan_s / search_s
    report_json("bench_planner_plan_share.json", "plan() share of a planned search",
                {"plan_us": round(1e6 * plan_s / len(queries), 2),
                 "search_us": round(1e6 * search_s / len(queries), 2),
                 "share": round(share, 4), "bound": PLAN_SHARE_BOUND})
    assert share <= PLAN_SHARE_BOUND, (
        f"plan() is {share:.2f} of a planned search (bound {PLAN_SHARE_BOUND}): "
        "planning costs more than it is allowed to save"
    )
