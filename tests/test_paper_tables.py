"""The paper-figure sweep table names only methods, knobs and datasets
that exist.

`benchmarks/bench_paper_sweeps.py` builds its series from
``FIGURES`` only when a benchmark run reaches them; a renamed method or
a deleted knob would otherwise surface only in that run.
"""

from __future__ import annotations

import pytest

from repro import METHOD_REGISTRY
from repro.core.engine import check_params

from benchmarks import conftest
from benchmarks.bench_paper_sweeps import DATASETS, FIGURES, PANELS

SERIES = [
    pytest.param(series, id=f"fig{figure}-{series.label}")
    for figure, spec in FIGURES.items()
    for series in spec.series
]


@pytest.mark.parametrize("series", SERIES)
def test_series_names_a_registry_method(series):
    assert series.name in METHOD_REGISTRY


@pytest.mark.parametrize("series", SERIES)
def test_series_knobs_are_accepted(series):
    check_params(series.name, series.knobs)


@pytest.mark.parametrize("figure", FIGURES)
def test_figure_names_a_dataset_the_module_builds(figure):
    dataset = FIGURES[figure].dataset
    assert dataset in DATASETS
    fixtures = [f"{dataset}_corpus", f"{dataset}_weighter"]
    fixtures += [f"{dataset}_{region}_queries" for region, _ in PANELS.values()]
    for name in fixtures:
        assert hasattr(conftest, name), name


def test_labels_are_unique_within_a_figure():
    for spec in FIGURES.values():
        labels = [series.label for series in spec.series]
        assert len(labels) == len(set(labels))
