"""Shared benchmark fixtures: corpora, workloads, prebuilt methods.

Scale is controlled by environment variables so the full paper-scale run
and a quick smoke run use the same code:

* ``REPRO_BENCH_N``        objects per corpus (default 20000)
* ``REPRO_BENCH_QUERIES``  queries per workload (default 16)

The corpora are *density-scaled*: the paper's spaces (1342M km² Twitter,
473M km² USA) hold 1M objects, so at N objects we shrink the space side
by ``sqrt(N/1M)`` to keep objects-per-km² — and hence the overlap
pressure that motivates SEAL (~8000 ROIs overlapping a small query at 1M,
proportionally ~N·0.008 here) — faithful to the published data.  The
scalability bench (Figure 18) instead fixes the space and grows N, as the
paper does.
"""

from __future__ import annotations

import math
import os

import pytest

from repro import TokenWeighter
from repro.datasets import generate_queries, generate_twitter, generate_usa
from repro.geometry import Rect

BENCH_N = int(os.environ.get("REPRO_BENCH_N", "20000"))
BENCH_QUERIES = int(os.environ.get("REPRO_BENCH_QUERIES", "16"))

#: The paper's full-scale spaces and corpus size.
PAPER_N = 1_000_000
TWITTER_FULL_SIDE = 36_633.0
USA_FULL_SIDE = 21_749.0

#: Threshold sweep of every figure: 0.1 … 0.5, default 0.4 (Section 6.1).
TAUS = (0.1, 0.2, 0.3, 0.4, 0.5)
DEFAULT_TAU = 0.4

#: Paper granularities the filter-comparison figures sweep; actual grids
#: use the bench-space equivalents (see :func:`scaled_granularity`).
GRANULARITIES = (256, 512, 1024)


def density_scaled_space(full_side: float, num_objects: int) -> Rect:
    side = full_side * math.sqrt(num_objects / PAPER_N)
    return Rect(0.0, 0.0, side, side)


def scaled_granularity(paper_granularity: int, num_objects: int = BENCH_N) -> int:
    """Bench-equivalent of a paper granularity.

    The bench space side shrinks by ``sqrt(N/1M)``, so a ``p × p`` grid
    over it has *smaller* cells than the paper's ``p × p`` grid over the
    full space.  Scaling the granularity by the same factor keeps the
    absolute cell size — and hence the cells-per-region statistics that
    drive probe counts and signature sizes — faithful to the paper's
    setting.  Figure labels keep the paper's numbers.
    """
    return max(4, round(paper_granularity * math.sqrt(num_objects / PAPER_N)))


def make_twitter_corpus(num_objects: int):
    """The bench Twitter corpus: clustered tightly enough to reproduce
    the paper's overlap counts (Section 1: ~8000 ROIs per small query at
    1M objects; proportional at reduced N)."""
    return generate_twitter(
        num_objects,
        seed=7,
        space=density_scaled_space(TWITTER_FULL_SIDE, num_objects),
        num_clusters=max(8, num_objects // 500),
        cluster_spread_fraction=0.002,
    )


def make_usa_corpus(num_objects: int):
    return generate_usa(
        num_objects,
        seed=11,
        space=density_scaled_space(USA_FULL_SIDE, num_objects),
        num_clusters=max(8, num_objects // 500),
        cluster_spread_fraction=0.002,
    )


@pytest.fixture(scope="session")
def twitter_corpus():
    return make_twitter_corpus(BENCH_N)


@pytest.fixture(scope="session")
def twitter_weighter(twitter_corpus):
    return TokenWeighter(obj.tokens for obj in twitter_corpus)


@pytest.fixture(scope="session")
def twitter_large_queries(twitter_corpus):
    return generate_queries(
        twitter_corpus, "large", BENCH_QUERIES, seed=13,
        tau_r=DEFAULT_TAU, tau_t=DEFAULT_TAU,
    )


@pytest.fixture(scope="session")
def twitter_small_queries(twitter_corpus):
    return generate_queries(
        twitter_corpus, "small", BENCH_QUERIES, seed=13,
        tau_r=DEFAULT_TAU, tau_t=DEFAULT_TAU,
    )


@pytest.fixture(scope="session")
def usa_corpus():
    return make_usa_corpus(BENCH_N)


@pytest.fixture(scope="session")
def usa_weighter(usa_corpus):
    return TokenWeighter(obj.tokens for obj in usa_corpus)


@pytest.fixture(scope="session")
def usa_large_queries(usa_corpus):
    return generate_queries(
        usa_corpus, "large", BENCH_QUERIES, seed=13, tau_r=DEFAULT_TAU, tau_t=DEFAULT_TAU
    )


@pytest.fixture(scope="session")
def usa_small_queries(usa_corpus):
    return generate_queries(
        usa_corpus, "small", BENCH_QUERIES, seed=13, tau_r=DEFAULT_TAU, tau_t=DEFAULT_TAU
    )


#: Report tables accumulated by the bench modules; flushed to the
#: terminal after the run by pytest_terminal_summary (output during tests
#: is swallowed by pytest's fd-level capture).
_REPORTS: list[str] = []


def emit(text: str) -> None:
    """Queue a report table for printing after the benchmark run."""
    _REPORTS.append(text)


def report_json(name: str, title: str, data: object) -> None:
    """Queue a JSON report block for the terminal summary; with
    ``REPRO_BENCH_JSON=<dir>`` also write it to ``<dir>/<name>`` (CI
    uploads that directory as the bench artifact)."""
    from repro.bench import format_json_report, write_json_report

    emit(format_json_report(title, data))
    directory = os.environ.get("REPRO_BENCH_JSON")
    if directory:
        os.makedirs(directory, exist_ok=True)
        write_json_report(os.path.join(directory, name), title, data)


def pytest_terminal_summary(terminalreporter):
    if not _REPORTS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_sep("=", "paper figure/table reproductions")
    for text in _REPORTS:
        terminalreporter.write_line("")
        for line in text.splitlines():
            terminalreporter.write_line(line)
