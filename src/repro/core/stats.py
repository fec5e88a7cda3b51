"""Per-query instrumentation: what a filter probed, retrieved, verified.

The paper evaluates methods by elapsed time *and* (in the technical
report) candidate counts.  Every search method in this library fills a
:class:`SearchStats` so benchmarks can report both, and so tests can assert
filtering-power relationships (e.g. hybrid candidates ⊆ grid candidates).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List


@dataclass(slots=True)
class SearchStats:
    """Counters filled during one ``search`` call.

    Attributes:
        lists_probed: Inverted lists (or tree nodes) visited by the filter.
        entries_retrieved: Posting entries read from those lists — for
            threshold-bounded lists this is the binary-search cut point
            (the qualifying head length), the honest probe cost.
        entries_matched: Retrieved entries that passed *every* per-posting
            bound check.  Equals ``entries_retrieved`` for single-bound
            lists; for dual-bound hybrid lists it is the post-textual-mask
            count, so ``retrieved - matched`` measures how much work the
            second bound column rejects.
        candidates: Size of the candidate set handed to verification.
        results: Number of final answers.
        filter_seconds: Wall time spent in the filter step.
        verify_seconds: Wall time spent in the verification step.
        method: Which search method produced these counters.  The
            execution pipeline stamps the method's registry name; the
            planner refines it to ``planned:<chosen>``; fan-out engines
            label the merged aggregate and keep the per-source labels in
            ``per_source``.
        per_source: For fan-out engines (segments + write buffer): one
            stats entry per probed source, in source order, each carrying
            its own ``method`` label — so observability stays
            attributable after the counters are summed.  Empty for
            single-index engines, and deliberately *not* accumulated by
            :meth:`merge` (workload totals would otherwise grow one
            entry per query).
    """

    lists_probed: int = 0
    entries_retrieved: int = 0
    entries_matched: int = 0
    candidates: int = 0
    results: int = 0
    filter_seconds: float = 0.0
    verify_seconds: float = 0.0
    method: str = ""
    per_source: List["SearchStats"] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return self.filter_seconds + self.verify_seconds

    def copy(self) -> "SearchStats":
        """An independent copy (aggregates merge into copies, never share).
        Fields go in positionally, in declaration order: a keyword call
        costs the result cache's every store three times as much."""
        return SearchStats(
            self.lists_probed,
            self.entries_retrieved,
            self.entries_matched,
            self.candidates,
            self.results,
            self.filter_seconds,
            self.verify_seconds,
            self.method,
            [source.copy() for source in self.per_source],
        )

    def merge(self, other: "SearchStats") -> None:
        """Accumulate another query's counters into this one (workload totals).

        ``method`` keeps this aggregate's own label and ``per_source`` is
        left untouched: cross-query totals sum counters, they do not
        concatenate per-source breakdowns.
        """
        self.lists_probed += other.lists_probed
        self.entries_retrieved += other.entries_retrieved
        self.entries_matched += other.entries_matched
        self.candidates += other.candidates
        self.results += other.results
        self.filter_seconds += other.filter_seconds
        self.verify_seconds += other.verify_seconds


@dataclass(slots=True)
class SearchResult:
    """Answer oids plus the instrumentation for one query.

    Attributes:
        answers: oids of objects satisfying both thresholds, ascending.
        stats: The per-query counters.
    """

    answers: List[int]
    stats: SearchStats

    def copy(self) -> "SearchResult":
        """An independent copy: fresh answer list, fresh stats.

        The serving layer's result cache stores and serves copies so two
        clients never alias one mutable stats object.
        """
        return SearchResult(list(self.answers), self.stats.copy())

    def __iter__(self):
        return iter(self.answers)

    def __len__(self) -> int:
        return len(self.answers)

    def __contains__(self, oid: int) -> bool:
        return oid in set(self.answers)


class Stopwatch:
    """Tiny perf_counter wrapper so timing reads as prose in the filters.

    Examples:
        >>> watch = Stopwatch()
        >>> elapsed = watch.lap()   # seconds since construction or last lap
    """

    __slots__ = ("_last",)

    def __init__(self) -> None:
        self._last = time.perf_counter()

    def lap(self) -> float:
        now = time.perf_counter()
        elapsed = now - self._last
        self._last = now
        return elapsed
