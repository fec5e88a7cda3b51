"""The query execution pipeline: filter → verify → stats, as data flow.

The framework's two steps are wired here once, so the methods keep owning
only *what* the filter step computes.  :func:`execute_query` is the
canonical pipeline — ``SearchMethod.search``, the segment fan-out, the
write-buffer scan and every batch run one query through it — and
:func:`run_query` is how the layers above (service, CLI, batch loop)
reach it through whichever engine shape they were handed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.objects import Query
from repro.core.stats import SearchResult, SearchStats, Stopwatch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.method import SearchMethod


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


def run_query(engine: Any, query: Query) -> SearchResult:
    """One query against any engine shape.

    Facades (``SealSearch``, the segmented and durable engines) take a
    prebuilt query through ``search_query``; bare methods and wrappers
    around them through ``search``; an object that only supplies the two
    framework steps (``candidates`` + ``verifier``) goes straight through
    :func:`execute_query`.
    """
    for entry in ("search_query", "search"):
        run = getattr(engine, entry, None)
        if run is not None:
            return run(query)
    return execute_query(engine, query)
