"""Structural statistics of signature indexes and filter selectivity."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.core.errors import ConfigurationError
from repro.core.method import SearchMethod
from repro.core.objects import Query
from repro.core.stats import SearchStats
from repro.index.inverted import InvertedIndex


@dataclass(frozen=True, slots=True)
class IndexStats:
    """Shape of one inverted index.

    Attributes:
        num_lists: Distinct signature elements.
        num_postings: Total postings.
        mean_list_length: Postings per list, mean.
        p50_list_length: Median list length.
        p99_list_length: 99th-percentile list length.
        max_list_length: Longest list (the probe worst case).
    """

    num_lists: int
    num_postings: int
    mean_list_length: float
    p50_list_length: float
    p99_list_length: float
    max_list_length: int


def index_stats(index: InvertedIndex) -> IndexStats:
    """List-length distribution of an inverted index.

    Raises:
        ConfigurationError: For an empty index (no lists to summarise).
    """
    lengths = index.list_lengths()
    if lengths.size == 0:
        raise ConfigurationError("index_stats requires a non-empty index")
    return IndexStats(
        num_lists=int(lengths.size),
        num_postings=int(lengths.sum()),
        mean_list_length=float(lengths.mean()),
        p50_list_length=float(np.percentile(lengths, 50)),
        p99_list_length=float(np.percentile(lengths, 99)),
        max_list_length=int(lengths.max()),
    )


@dataclass(frozen=True, slots=True)
class FilterPowerReport:
    """Filter selectivity of one method over a workload.

    All figures are per-query means.

    Attributes:
        method: Display name.
        candidates: Candidate-set size the filter hands to verification.
        candidate_rate: Candidates / corpus size (lower = stronger filter).
        answers: True answers.
        precision: Answers / candidates — how much verification work was
            necessary (1.0 means the filter was perfect).
        lists_probed: Inverted lists (or nodes) touched.
        entries_retrieved: Postings scanned.
    """

    method: str
    candidates: float
    candidate_rate: float
    answers: float
    precision: float
    lists_probed: float
    entries_retrieved: float


def filtering_power(
    method: SearchMethod,
    queries: Sequence[Query],
) -> FilterPowerReport:
    """Measure a method's filter selectivity over a workload.

    Raises:
        ConfigurationError: On an empty workload.
    """
    if not queries:
        raise ConfigurationError("filtering_power requires a non-empty workload")
    corpus_size = len(method.corpus)
    total_candidates = 0
    total_answers = 0
    total_lists = 0
    total_entries = 0
    for query in queries:
        stats = SearchStats()
        candidate_oids = method.candidates(query, stats)
        answers = method.verifier.verify(query, candidate_oids)
        total_candidates += len(candidate_oids)
        total_answers += len(answers)
        total_lists += stats.lists_probed
        total_entries += stats.entries_retrieved
    n = len(queries)
    mean_candidates = total_candidates / n
    return FilterPowerReport(
        method=getattr(method, "name", type(method).__name__),
        candidates=mean_candidates,
        candidate_rate=mean_candidates / corpus_size if corpus_size else 0.0,
        answers=total_answers / n,
        precision=(total_answers / total_candidates) if total_candidates else 1.0,
        lists_probed=total_lists / n,
        entries_retrieved=total_entries / n,
    )


def compare_filtering_power(
    methods: Dict[str, SearchMethod],
    queries: Sequence[Query],
) -> Dict[str, FilterPowerReport]:
    """One report per method over the same workload."""
    return {name: filtering_power(method, queries) for name, method in methods.items()}
