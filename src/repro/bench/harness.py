"""Workload measurement and threshold sweeps."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Sequence

from repro.core.errors import ConfigurationError
from repro.core.objects import Query
from repro.core.stats import SearchStats
from repro.exec.pipeline import run_query


@dataclass(frozen=True, slots=True)
class WorkloadMeasurement:
    """Averages over one workload run (the paper reports per-query means).

    Attributes:
        queries: Workload size.
        elapsed_ms: Mean end-to-end time per query (filter + verify).
        filter_ms: Mean filter-step time per query.
        verify_ms: Mean verification time per query.
        candidates: Mean candidate-set size per query.
        entries_retrieved: Mean postings scanned per query.
        lists_probed: Mean inverted lists probed per query.
        results: Mean answer count per query.
    """

    queries: int
    elapsed_ms: float
    filter_ms: float
    verify_ms: float
    candidates: float
    entries_retrieved: float
    lists_probed: float
    results: float


def measure_workload(engine: Any, queries: Sequence[Query]) -> WorkloadMeasurement:
    """Run every query once through :func:`~repro.exec.pipeline.run_query`
    and average the per-query stats.

    This is the library's one workload summary; batch APIs return
    per-query results only.

    Args:
        engine: Any engine shape ``run_query`` takes: ``SealSearch``, a
            registry method, or a wrapper around one.
        queries: The workload.

    Raises:
        ConfigurationError: On an empty workload.
    """
    if not queries:
        raise ConfigurationError("measure_workload requires a non-empty workload")
    totals = SearchStats()
    for query in queries:
        totals.merge(run_query(engine, query).stats)
    n = len(queries)
    return WorkloadMeasurement(
        queries=n,
        elapsed_ms=1000.0 * totals.total_seconds / n,
        filter_ms=1000.0 * totals.filter_seconds / n,
        verify_ms=1000.0 * totals.verify_seconds / n,
        candidates=totals.candidates / n,
        entries_retrieved=totals.entries_retrieved / n,
        lists_probed=totals.lists_probed / n,
        results=totals.results / n,
    )


def sweep(
    engine: Any,
    queries: Sequence[Query],
    taus: Iterable[float],
    axis: str,
) -> Dict[float, WorkloadMeasurement]:
    """Measure the workload at each threshold along one axis.

    Args:
        engine: The engine under test (any shape :func:`measure_workload`
            takes).
        queries: Base workload (its other-axis thresholds are kept).
        taus: Threshold values to sweep.
        axis: ``"tau_r"`` (vary spatial) or ``"tau_t"`` (vary textual) —
            the x-axes of Figures 12, 14, 16 and 17.

    Raises:
        ConfigurationError: On an unknown axis or an empty workload.
    """
    if axis not in ("tau_r", "tau_t"):
        raise ConfigurationError(f"axis must be 'tau_r' or 'tau_t', got {axis!r}")
    out: Dict[float, WorkloadMeasurement] = {}
    for tau in taus:
        stamped = [
            q.with_thresholds(tau_r=tau) if axis == "tau_r" else q.with_thresholds(tau_t=tau)
            for q in queries
        ]
        out[tau] = measure_workload(engine, stamped)
    return out
