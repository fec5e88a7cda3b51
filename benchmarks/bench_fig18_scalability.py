"""Figure 18 — scalability: elapsed time vs number of objects.

The paper grows the Twitter corpus from 0.2M to 1M objects *within the
same space* (density rises with N) and plots SEAL's per-query time for
several thresholds, observing sub-linear growth.  We reproduce the setup
at bench scale: the session's Twitter corpus is the largest size, its
prefixes are the smaller sizes, SEAL is rebuilt per size, and every size
answers the session's large-region workload.

Panels: (a) large-region queries across spatial thresholds; (b)
large-region queries across textual thresholds.
"""

from __future__ import annotations

import pytest

from repro import build_method
from repro.bench import format_table, sweep

from benchmarks.conftest import emit

SIZE_FRACTIONS = (0.2, 0.4, 0.6, 0.8, 1.0)
SWEEP_TAUS = (0.1, 0.3, 0.5)


@pytest.fixture(scope="module")
def scaled_engines(twitter_corpus):
    """SEAL engines over growing prefixes of one fixed-space corpus."""
    engines = {}
    for fraction in SIZE_FRACTIONS:
        n = int(len(twitter_corpus) * fraction)
        subset = twitter_corpus[:n]  # oids stay dense: 0..n-1
        engines[n] = build_method(subset, "seal", mt=32, max_level=8, min_objects=8)
    return engines


def _panel(benchmark, engines, queries, axis, title):
    def run():
        return {n: sweep(engine, queries, SWEEP_TAUS, axis) for n, engine in engines.items()}

    series = benchmark.pedantic(run, rounds=1, iterations=1)
    kind = "Spatial" if axis == "tau_r" else "Textual"
    rows = {
        f"{kind} Threshold={tau}": [round(series[n][tau].elapsed_ms, 3) for n in engines]
        for tau in SWEEP_TAUS
    }
    emit(format_table(title, "num objects", list(engines), rows))


@pytest.mark.benchmark(group="fig18")
def test_fig18a_vary_spatial_threshold(benchmark, scaled_engines, twitter_large_queries):
    _panel(
        benchmark, scaled_engines, twitter_large_queries, "tau_r",
        "Figure 18(a): SEAL scalability vs corpus size, spatial thresholds (ms/query)",
    )


@pytest.mark.benchmark(group="fig18")
def test_fig18b_vary_textual_threshold(benchmark, scaled_engines, twitter_large_queries):
    _panel(
        benchmark, scaled_engines, twitter_large_queries, "tau_t",
        "Figure 18(b): SEAL scalability vs corpus size, textual thresholds (ms/query)",
    )
