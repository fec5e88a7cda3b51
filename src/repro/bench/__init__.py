"""Benchmark harness: workload timing, threshold sweeps, report tables.

The paper's evaluation (Section 6) reports *elapsed time per query* as
thresholds, granularities, index-size budgets and corpus sizes vary.
This package owns the measurement mechanics so every ``benchmarks/``
module is a thin declaration of the experiment, and so the printed
series line up with the paper's figures one-for-one.
"""

from repro.bench.harness import (
    WorkloadMeasurement,
    measure_workload,
    sweep,
)
from repro.bench.reporting import (
    format_json_report,
    format_series_table,
    format_table,
    write_json_report,
)

__all__ = [
    "WorkloadMeasurement",
    "format_json_report",
    "format_series_table",
    "format_table",
    "measure_workload",
    "sweep",
    "write_json_report",
]
