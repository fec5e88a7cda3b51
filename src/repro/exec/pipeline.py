"""The query execution pipeline: filter → verify → stats, as data flow.

The framework's two steps are wired here once, so the methods keep owning
only *what* the filter step computes.  :func:`execute_query` is the
canonical pipeline — ``SearchMethod.search``, the segment fan-out, the
write-buffer scan and every batch loop run one query through it — and
:func:`run_query` is how the layers above (service, CLI, batch loop)
reach it through whichever engine shape they were handed.

:func:`execute_batch` is its batched twin for a method with a batched
filter step (``candidates_batch``: ``token``, ``grid`` and ``planned``):
one filter pass and one verify pass over every (query, candidate) pair of
up to :data:`BATCH_MAX_QUERIES` queries, instead of that many trips
through the per-query interpreter and NumPy dispatch cost.  Each query's
result — answers, ``method`` and every counter — is the one
:func:`execute_query` returns.  :class:`BatchExecutor` is the batched
twin of :func:`run_query`: a batch against any engine shape, returned as
a list of per-query results.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Sequence

import numpy as np

from repro.core.objects import Query
from repro.core.stats import SearchResult, SearchStats, Stopwatch
from repro.signatures.query import compile_query

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.method import SearchMethod

#: A filter's batch (a planner's queries bound for one member, or a whole
#: batch sent to a filter) with fewer queries to probe than this — its
#: ``FULL_SCAN`` queries do not count — is declined by its
#: ``candidates_batch`` and runs as a loop of singles: a batched pass pays
#: a fixed ≈ 50 µs of array set-up that a few queries do not amortise.
#: :func:`execute_batch` skips the pass below it outright.  Measured on the perf ledger's ``fig16_large`` inputs
#: (N = 10 000, ``planned``, µs/query, loop vs batched): 53 vs 100 at 1
#: query per group, 53 vs 60 at 3, 53 vs 52 at 4, 51 vs 37 at 8.
BATCH_MIN_QUERIES = 4

#: Batches larger than this are cut into near-equal chunks, each its own
#: pass: past it the pass's pair, entry and key columns outgrow the
#: cache.  On ``mixed_regimes``' textual-only regime (≈ 400 candidates per
#: query, all surviving the spatial check) the batched pass beat the
#: loop's 141–146 µs/query with 97–99 at 32 queries per pass and only
#: just with 134–139 at 64.
BATCH_MAX_QUERIES = 32


def execute_query(method: "SearchMethod", query: Query) -> SearchResult:
    """Run one query through the filter-and-verify pipeline.

    Args:
        method: Supplies the filter step (its ``candidates``) and the
            verification step (its ``verifier``).
        query: The query to execute.

    Returns:
        The answers (sorted by oid) plus filled :class:`SearchStats`.
    """
    stats = SearchStats(method=getattr(method, "name", type(method).__name__))
    watch = Stopwatch()
    # ``candidates`` may refine the label (the planner stamps the method
    # it dispatched to), so it is set before — never after — the filter.
    candidate_oids = method.candidates(query, stats)
    stats.filter_seconds = watch.lap()
    stats.candidates = len(candidate_oids)
    answers = method.verifier.verify(query, candidate_oids, stats)
    stats.verify_seconds = watch.lap()
    answers.sort()
    return SearchResult(answers=answers, stats=stats)


def execute_batch(method: Any, queries: Sequence[Query]) -> List[SearchResult]:
    """:func:`execute_query` of every query, in order, in batched passes.

    Args:
        method: Supplies ``candidates_batch(queries, stats)`` — the
            filter step of many queries at once, returning ``(declined,
            pair_queries, pair_oids)``: the positions it leaves to the
            single path, and the (query position, candidate oid) pairs of
            the rest, sorted by query, then oid — its ``verifier`` and the
            ``weighter`` each query is compiled under, once.
        queries: The batch.

    Below :data:`BATCH_MIN_QUERIES` queries this is a loop of
    :func:`execute_query`; above :data:`BATCH_MAX_QUERIES` the batch is
    cut into near-equal chunks.  Each pass's wall time is split evenly
    over the queries it answered.
    """
    queries = [compile_query(query, method.weighter) for query in queries]
    if len(queries) < BATCH_MIN_QUERIES:
        return [execute_query(method, query) for query in queries]
    chunks = -(-len(queries) // BATCH_MAX_QUERIES)
    cuts = [len(queries) * i // chunks for i in range(chunks + 1)]
    results: List[SearchResult] = []
    for start, end in zip(cuts, cuts[1:]):
        results.extend(_execute_pass(method, queries[start:end]))
    return results


def _execute_pass(method: Any, queries: List[Query]) -> List[SearchResult]:
    name = getattr(method, "name", type(method).__name__)
    stats = [SearchStats(method=name) for _ in queries]
    watch = Stopwatch()
    declined, pair_queries, pair_oids = method.candidates_batch(queries, stats)
    if len(declined) == len(queries):
        return [execute_query(method, query) for query in queries]
    filter_seconds = watch.lap()
    answers = method.verifier.verify_batch(queries, pair_queries, pair_oids, stats)
    verify_seconds = watch.lap()
    share = 1.0 / max(1, len(queries) - len(declined))
    candidates = np.bincount(pair_queries, minlength=len(queries)).tolist()
    results = []
    for entry, count, found in zip(stats, candidates, answers):
        entry.candidates = count
        entry.filter_seconds = filter_seconds * share
        entry.verify_seconds = verify_seconds * share
        results.append(SearchResult(answers=found, stats=entry))
    for position in declined:
        results[position] = execute_query(method, queries[position])
    return results


def run_query(engine: Any, query: Query) -> SearchResult:
    """One query against any engine shape.

    The engine (``SealSearch``, which is the segmented engine, and its
    durable wrapper) takes a prebuilt query through ``search_query``;
    bare methods and wrappers around them through ``search``; an object
    that only supplies the two framework steps (``candidates`` +
    ``verifier``) goes straight through :func:`execute_query`.
    """
    for entry in ("search_query", "search"):
        run = getattr(engine, entry, None)
        if run is not None:
            return run(query)
    return execute_query(engine, query)


class BatchExecutor:
    """A batch against any engine shape, probe for probe like :func:`run_query`.

    An engine with its own ``search_batch`` (``SealSearch`` and its
    durable wrapper, which run one trip here per source) runs it; a
    method with a batched filter step goes through
    :func:`execute_batch`; anything else runs :func:`run_query` per
    query.  Either way the result is one :class:`SearchResult` per
    query, in input order, each equal to the single query's.
    """

    def run(self, engine: Any, queries: Sequence[Query]) -> List[SearchResult]:
        queries = list(queries)
        search_batch = getattr(engine, "search_batch", None)
        if search_batch is not None:
            return search_batch(queries)
        if hasattr(engine, "candidates_batch"):
            return execute_batch(engine, queries)
        return [run_query(engine, query) for query in queries]
