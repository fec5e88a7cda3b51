"""Figures 12, 14, 16 and 17 — the paper's threshold sweeps, one table.

Each of these figures runs the same experiment: four panels — (a)
large-region queries, vary τR; (b) large-region, vary τT; (c)
small-region, vary τR; (d) small-region, vary τT — over a list of
methods.  They differ only in the dataset and the methods, so each is a
row of :data:`FIGURES`.  A series is a label, a ``METHOD_REGISTRY`` name
and the knobs it is built with.  Each (dataset, name, knobs)
configuration is built once per session, outside the timed sweep, and
shared by every figure that names it (Figures 12 and 14 sweep the same
grids).
"""

from __future__ import annotations

from typing import NamedTuple

import pytest

from repro import build_method
from repro.bench import format_series_table, measure_workload, sweep

from benchmarks.conftest import DEFAULT_TAU, GRANULARITIES, TAUS, emit, scaled_granularity


class Series(NamedTuple):
    label: str
    name: str  # a METHOD_REGISTRY name
    knobs: dict


class Figure(NamedTuple):
    dataset: str  # one of DATASETS
    caption: str
    series: tuple


#: The datasets a figure can name.  Each has the conftest fixtures
#: ``<dataset>_corpus``, ``<dataset>_weighter`` and
#: ``<dataset>_<region>_queries`` for both query regions.
DATASETS = ("twitter", "usa")

#: Panel letter -> (query region, swept threshold).
PANELS = {
    "a": ("large", "tau_r"),
    "b": ("large", "tau_t"),
    "c": ("small", "tau_r"),
    "d": ("small", "tau_t"),
}


def _grid(g):
    return {"granularity": scaled_granularity(g)}


def _hybrid(g):
    return {"granularity": scaled_granularity(g), "num_buckets": 1 << 20}


#: SEAL against the three baselines, as Figures 16 and 17 compare them.
METHODS = (
    Series("IR-Tree", "irtree", {}),
    Series("Keyword", "keyword-first", {}),
    Series("Spatial", "spatial-first", {}),
    Series("SEAL", "seal", {"mt": 32, "max_level": 8, "min_objects": 8}),
)

FIGURES = {
    # TokenFilter vs GridFilter at granularities 256, 512, 1024.  Shape
    # to reproduce: TokenFilter wins at small τR / large τT, GridFilter
    # gains as τR grows (spatial pruning bites) — the two curves cross,
    # motivating the hybrid (Section 6.2's conclusion: "it is better to
    # combine both filters").
    12: Figure("twitter", "Token vs Grid", (
        Series("TokenFilter", "token", {}),
        *(Series(f"GridFilter({g})", "grid", _grid(g)) for g in GRANULARITIES),
    )),
    # G-256/512/1024 (grid-only) against H-256/512/1024 (hash-based
    # hybrid at the same granularities).  Shape to reproduce: the hybrid
    # is up to an order of magnitude faster at every granularity because
    # it prunes on both axes simultaneously — its candidate sets are
    # subsets of the grid filter's.
    14: Figure("twitter", "Grid vs Hybrid", tuple(
        series
        for g in GRANULARITIES
        for series in (
            Series(f"G-{g}", "grid", _grid(g)),
            Series(f"H-{g}", "hash-hybrid", _hybrid(g)),
        )
    )),
    # The headline comparison.  Shape to reproduce: SEAL fastest at every
    # threshold — "several tens of times faster than the baseline
    # methods" — with Keyword hurt by low τT (textual pruning is its
    # *only* pruning of its huge candidate sets), Spatial hurt by low τR,
    # and the IR-tree paying for loose hierarchical bounds.
    16: Figure("twitter", "methods on Twitter", METHODS),
    # The same comparison on the synthetic USA + DBLP dataset.  Shape to
    # reproduce: Keyword sometimes performs *worse* than Spatial (17(a))
    # because USA regions are small and uniform so spatial pruning is
    # strong, while for large τT Spatial falls behind (17(d)); SEAL stays
    # fastest everywhere.
    17: Figure("usa", "methods on USA", METHODS),
}


@pytest.fixture(scope="session")
def built_methods():
    """(dataset, name, knobs) -> method, shared by every figure."""
    return {}


def _method(request, built_methods, dataset, series):
    key = (dataset, series.name, tuple(sorted(series.knobs.items())))
    if key not in built_methods:
        built_methods[key] = build_method(
            request.getfixturevalue(f"{dataset}_corpus"),
            series.name,
            request.getfixturevalue(f"{dataset}_weighter"),
            **series.knobs,
        )
    return built_methods[key]


@pytest.mark.parametrize("panel", PANELS)
@pytest.mark.parametrize("figure", FIGURES)
def test_sweep(benchmark, request, built_methods, figure, panel):
    dataset, caption, series = FIGURES[figure]
    region, axis = PANELS[panel]
    methods = {s.label: _method(request, built_methods, dataset, s) for s in series}
    queries = request.getfixturevalue(f"{dataset}_{region}_queries")

    def run():
        return {label: sweep(method, queries, TAUS, axis) for label, method in methods.items()}

    benchmark.group = f"fig{figure}"
    swept = benchmark.pedantic(run, rounds=1, iterations=1)
    title = f"Figure {figure}({panel}): {caption}, {region}-region queries, vary {axis} (ms/query)"
    emit(format_series_table(title, axis, swept, metric="elapsed_ms"))
    emit(format_series_table(title + " — candidates", axis, swept, metric="candidates"))


# Per-method single-point benchmarks at Figure 16's default thresholds:
# these give pytest-benchmark's statistics (stddev, rounds) for the
# paper's headline comparison point.
@pytest.mark.benchmark(group="fig16-default-point")
@pytest.mark.parametrize("series", FIGURES[16].series, ids=lambda s: s.label)
def test_fig16_default_thresholds(
    benchmark, request, built_methods, twitter_small_queries, series
):
    method = _method(request, built_methods, FIGURES[16].dataset, series)
    queries = [
        q.with_thresholds(tau_r=DEFAULT_TAU, tau_t=DEFAULT_TAU) for q in twitter_small_queries
    ]
    measurement = benchmark.pedantic(
        lambda: measure_workload(method, queries), rounds=3, iterations=1
    )
    emit(
        f"fig16 default point — {series.label}: "
        f"{measurement.elapsed_ms:.3f} ms/query, "
        f"{measurement.candidates:.1f} candidates/query"
    )
