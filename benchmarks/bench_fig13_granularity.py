"""Figure 13 — grid granularity: filter time vs verification time.

The paper partitions the space into p × p grids for p = 64 … 8192 and
plots the filter and verification components of GridFilter's query time.
Shape to reproduce: verification time falls monotonically (finer cells →
fewer candidates) with diminishing returns, while filter time eventually
*rises* (more lists to probe), giving the U-shaped total that motivates
the Section 4.3 cost model.

We sweep p over powers of two scaled to the bench corpus.  This sweep is
the repository's granularity study: the Equation 4 cost model itself is
not built, and the granularity stays a build knob.
"""

from __future__ import annotations

import pytest

from repro import build_method
from repro.bench import format_table, measure_workload

from benchmarks.conftest import emit, scaled_granularity

#: Paper granularities (the paper sweeps 64 … 8192); actual grids use
#: the bench-space equivalents, labels keep the paper's numbers.
GRANULARITIES = (64, 256, 1024, 4096, 8192)


@pytest.fixture(scope="module")
def grid_filters(twitter_corpus, twitter_weighter):
    return {
        g: build_method(
            twitter_corpus, "grid", twitter_weighter, granularity=scaled_granularity(g)
        )
        for g in GRANULARITIES
    }


def _panel(benchmark, grid_filters, queries, title):
    def run():
        return {g: measure_workload(f, list(queries)) for g, f in grid_filters.items()}

    measures = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = {
        "Filter (ms)": [round(m.filter_ms, 3) for m in measures.values()],
        "Verification (ms)": [round(m.verify_ms, 3) for m in measures.values()],
        "Total (ms)": [round(m.elapsed_ms, 3) for m in measures.values()],
        "Candidates": [round(m.candidates, 1) for m in measures.values()],
        "Lists probed": [round(m.lists_probed, 1) for m in measures.values()],
    }
    emit(format_table(title, "granularity", list(measures), rows))


@pytest.mark.benchmark(group="fig13")
def test_fig13a_large_region(benchmark, grid_filters, twitter_large_queries):
    _panel(
        benchmark, grid_filters, twitter_large_queries,
        "Figure 13(a): GridFilter filter vs verification time, large-region queries",
    )


@pytest.mark.benchmark(group="fig13")
def test_fig13b_small_region(benchmark, grid_filters, twitter_small_queries):
    _panel(
        benchmark, grid_filters, twitter_small_queries,
        "Figure 13(b): GridFilter filter vs verification time, small-region queries",
    )
