"""Batched query execution: a workload in, per-query results and totals out.

:class:`BatchExecutor` runs each query of a batch through
:func:`~repro.exec.pipeline.run_query` — the same path a single query
takes, against any engine shape — and aggregates the per-query
:class:`~repro.core.stats.SearchResult` objects into one
:class:`BatchStats`.  A batch is therefore answer-identical to a loop of
single queries by construction; what the callers (the service's burst
coalescing, ``search_batch`` on the facades, the CLI's ``--batch-file``)
get from it is the aggregate and one timing around the whole workload.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterator, List, Sequence

from repro.core.objects import Query
from repro.core.stats import SearchResult, SearchStats
from repro.exec.pipeline import run_query


@dataclass(slots=True)
class BatchStats:
    """Aggregate instrumentation for one batch run.

    Attributes:
        queries: Number of queries executed.
        totals: Sum of every per-query :class:`SearchStats`.
        elapsed_seconds: Wall time for the whole batch.
    """

    queries: int = 0
    totals: SearchStats = field(default_factory=SearchStats)
    elapsed_seconds: float = 0.0

    @property
    def qps(self) -> float:
        """Queries per second over the batch wall time."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.queries / self.elapsed_seconds

    @property
    def mean_ms(self) -> float:
        """Mean wall milliseconds per query."""
        if self.queries == 0:
            return 0.0
        return 1000.0 * self.elapsed_seconds / self.queries


@dataclass(slots=True)
class BatchResult:
    """Per-query results plus the batch aggregate.

    Iterating yields the per-query :class:`SearchResult` objects in input
    order, so ``[r.answers for r in batch]`` lines up with the queries.
    """

    results: List[SearchResult]
    stats: BatchStats

    def __iter__(self) -> Iterator[SearchResult]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index: int) -> SearchResult:
        return self.results[index]

    def answers(self) -> List[List[int]]:
        """The per-query answer lists, in input order."""
        return [result.answers for result in self.results]


class BatchExecutor:
    """Run a query batch against one engine and aggregate its stats."""

    def run(self, engine: Any, queries: Sequence[Query]) -> BatchResult:
        queries = list(queries)
        started = time.perf_counter()
        results = [run_query(engine, query) for query in queries]
        elapsed = time.perf_counter() - started
        totals = SearchStats()
        for result in results:
            totals.merge(result.stats)
        return BatchResult(
            results=results,
            stats=BatchStats(queries=len(queries), totals=totals, elapsed_seconds=elapsed),
        )
