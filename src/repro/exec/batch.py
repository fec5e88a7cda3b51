"""Batched query execution: a workload in, per-query results and totals out.

:class:`BatchExecutor` runs a batch through
:func:`~repro.exec.pipeline.execute_batch` — one filter pass and one
verify pass over all (query, candidate) pairs — when the engine has a
batched filter step and a batched verifier (``token``, ``grid``,
``planned``), and otherwise each query through
:func:`~repro.exec.pipeline.run_query`, the path a single query takes
against any engine shape (hybrids, baselines, the segmented and durable
engines, the textual-predicate extension).  Either way each result equals the
single query's, answers and counters alike.  It aggregates the per-query
:class:`~repro.core.stats.SearchResult` objects into one
:class:`BatchStats`; its callers are the service's burst coalescing (and
through it the wire ``batch`` op), ``search_batch`` on the facades and
the CLI's ``--batch-file``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterator, List, Sequence

from repro.core.objects import Query
from repro.core.stats import SearchResult, SearchStats
from repro.exec.pipeline import execute_batch, run_query


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
        # A filter whose verifier has no batched pass (a textual
        # predicate's, which is not Jaccard) keeps the loop.
        verifier = getattr(engine, "verifier", None)
        if hasattr(engine, "candidates_batch") and hasattr(verifier, "verify_batch"):
            results = execute_batch(engine, queries)
        else:
            results = [run_query(engine, query) for query in queries]
        elapsed = time.perf_counter() - started
        totals = SearchStats()
        for result in results:
            totals.merge(result.stats)
        return BatchResult(
            results=results,
            stats=BatchStats(queries=len(queries), totals=totals, elapsed_seconds=elapsed),
        )
