"""Scales, workload names and the metric registry.

Every number the ledger prints is declared here once: its name, unit,
which direction is better, the regression bound ``compare`` applies, and
the workloads it is measured on.  ``BENCHMARK.json`` at the repository
root lists a subset of these (the smoke test checks the two agree): its
``end_to_end`` block holds the end-to-end metrics that are defined on
*every* workload, because the driver wants each of them from each run;
the workload-specific end-to-end metrics (``batch_qps``, the churn
family) ride in its ``per_layer`` block and read 0 on the
workloads that do not exercise them.

Two sets of bounds, for two comparisons.  The ones here are ISSUE 11's
and judge ``compare``, which only accepts two reports of the *same*
seed: 10 % for timings and ``peak_rss_mb``, 0 for exact counts.  The
driver compares medians over runs of *different* seeds, so the bounds in
``BENCHMARK.json`` are wider (README "Repeatability") — never narrower.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

FIG16, MIXED, HOT, CHURN = "fig16_large", "mixed_regimes", "hot_zipf", "churn_durable"
WORKLOADS: Tuple[str, ...] = (FIG16, MIXED, HOT, CHURN)
#: The workloads with one planner behind a socket (and so one to probe).
WIRE_WORKLOADS: Tuple[str, ...] = (FIG16, MIXED, HOT)
#: The planner's default portfolio.
MEMBERS: Tuple[str, ...] = ("token", "grid", "hash-hybrid", "seal")

WHY: Dict[str, str] = {
    FIG16: (
        "paper Fig. 16a large-region queries, more distinct than the result "
        "cache holds: every request crosses wire, admission, planner, filter, verify"
    ),
    MIXED: (
        "four regimes round-robin (large, small, spatial-only, textual-only): "
        "verification-bound, and a different portfolio member wins each regime"
    ),
    HOT: (
        "256 large-region queries drawn Zipf(1.1): fits the cache, the engine "
        "idles, the round trip is JSON frame + socket + cache hit"
    ),
    CHURN: (
        "inserts, deletes and queries interleaved on the WAL-backed segmented "
        "engine, then checkpoint and recover: seal/merge index builds dominate"
    ),
}

#: The seed ``--seed`` defaults to; its input fingerprints are pinned in
#: ``fingerprints.json``.
DEFAULT_SEED = 7

#: Inserts slower than this are seal/merge stalls, not buffer appends.
STALL_SECONDS = 0.005


@dataclass(frozen=True)
class Scale:
    """Op counts of one benchmark size: inputs, never a time limit."""

    name: str
    objects: int           # corpus size of the three query workloads
    fig16_queries: int     # distinct large-region queries, cycled in order
    regime_queries: int    # distinct queries per regime of mixed_regimes
    zipf_distinct: int
    zipf_ops: int          # ops per pass of hot_zipf
    churn_base: int
    churn_inserts: int     # interleaved steps: insert + query (+ delete every 4th)
    churn_coda: int        # inserts between checkpoint and close (the replayed tail)
    batch_group: int = 32
    naive_sample: int = 128
    probe_sample: int = 256


#: The scale BENCHMARK.json runs.  N is half the ROADMAP's 20k: at 20k the
#: untimed floor of one run (18 s planned build + 2 s naive oracle) times
#: the driver's 92 runs is two thirds of its time cap before a single op
#: is timed.  Query counts keep every cycle larger than the 1024-entry
#: result cache, so in-order cycling never hits.
CANONICAL = Scale(
    name="canonical", objects=10_000, fig16_queries=2048, regime_queries=320,
    zipf_distinct=256, zipf_ops=20_000,
    churn_base=4000, churn_inserts=1024, churn_coda=300,
)

#: The tier-1 smoke scale: every metric, a few seconds (too few inserts to
#: seal a 256-object buffer, so the stall metrics read 0 here).
TOY = Scale(
    name="toy", objects=80, fig16_queries=48, regime_queries=12,
    zipf_distinct=16, zipf_ops=200,
    churn_base=48, churn_inserts=96, churn_coda=8,
    naive_sample=16, probe_sample=16,
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str                      # "lower" | "higher"
    kind: str                        # "end_to_end" | "per_layer"
    workloads: Tuple[str, ...]
    bound: Optional[float] = None    # same-seed regression bound (end-to-end only)

    @property
    def timing(self) -> bool:
        """Read off the clock, so one sample settles nothing (sizes and
        counts repeat, exactly or nearly, for a seed)."""
        return self.unit in ("s", "ms", "us", "ns", "1/s")


TIMING_BOUND = 0.10


def _e2e(name, unit, better, workloads=WORKLOADS, bound=TIMING_BOUND) -> Metric:
    return Metric(name, unit, better, "end_to_end", tuple(workloads), bound)


def _exact(name, unit, workloads=WORKLOADS) -> Metric:
    return _e2e(name, unit, "lower", workloads, bound=0.0)


def _layer(name, unit, better, workloads=WORKLOADS) -> Metric:
    return Metric(name, unit, better, "per_layer", tuple(workloads))


_FIG16_MIXED = (FIG16, MIXED)

_METRICS = [
    # ---- end to end -------------------------------------------------
    _e2e("setup_s", "s", "lower"),
    _e2e("query_p50_ms", "ms", "lower"),
    _e2e("query_qps", "1/s", "higher"),
    _e2e("ops_per_s", "1/s", "higher"),
    _e2e("peak_rss_mb", "MB", "lower"),
    _e2e("batch_qps", "1/s", "higher", _FIG16_MIXED),
    _exact("index_bytes_per_object", "B"),
    _exact("wal_bytes_per_insert", "B", (CHURN,)),
    _exact("snapshot_bytes_per_object", "B", (CHURN,)),
    _exact("failed_frac", "ratio"),
    # Demoted from end to end, not given a wider bound: a tail, or a
    # timing churn_durable's one script a run gives one sample of (README
    # "Repeatability" has the measured spreads).
    _layer("query_p99_ms", "ms", "lower"),
    _layer("insert_ops_per_s", "1/s", "higher", (CHURN,)),
    _layer("insert_p50_ms", "ms", "lower", (CHURN,)),
    _layer("insert_stall_max_ms", "ms", "lower", (CHURN,)),
    _layer("checkpoint_s", "s", "lower", (CHURN,)),
    _layer("recover_s", "s", "lower", (CHURN,)),
    _layer("results_per_query", "count", "higher"),
    # ---- build (fig16_large only: it costs a second index build) ----
    *[_layer(f"filters.{m}.build_s", "s", "lower", (FIG16,)) for m in MEMBERS],
    _layer("text.weighter_build_s", "s", "lower", WIRE_WORKLOADS),
    _layer("exec.planner.build_s", "s", "lower", WIRE_WORKLOADS),
    *[_layer(f"index.bytes.{m}", "B", "lower", WIRE_WORKLOADS) for m in MEMBERS],
    # ---- planner ----------------------------------------------------
    _layer("exec.planner.plan_us", "us", "lower", WIRE_WORKLOADS),
    *[_layer(f"exec.planner.choice_share.{m}", "ratio", "higher", WIRE_WORKLOADS) for m in MEMBERS],
    _layer("exec.planner.regret_ratio", "ratio", "lower", WIRE_WORKLOADS),
    # ---- filter probe -----------------------------------------------
    _layer("filters.probe_us", "us", "lower", WIRE_WORKLOADS),
    _layer("index.lists_probed", "count", "lower"),
    _layer("index.entries_retrieved", "count", "lower"),
    _layer("filters.candidates", "count", "lower"),
    _layer("filters.precision", "ratio", "higher"),
    # ---- verification -----------------------------------------------
    _layer("core.verification.verify_us", "us", "lower", WIRE_WORKLOADS),
    _layer("core.verification.ns_per_candidate", "ns", "lower", WIRE_WORKLOADS),
    # ---- pipeline / batch -------------------------------------------
    _layer("exec.pipeline.overhead_us", "us", "lower", WIRE_WORKLOADS),
    _layer("exec.batch.speedup", "ratio", "higher", WIRE_WORKLOADS),
    # ---- service ----------------------------------------------------
    _layer("service.service.miss_overhead_us", "us", "lower"),
    _layer("service.cache.hit_us", "us", "lower", WIRE_WORKLOADS),
    _layer("service.cache.hit_rate", "ratio", "higher"),
    _layer("service.cache.evictions", "count", "lower"),
    _layer("service.cache.invalidated", "count", "lower"),
    _layer("service.admission.rejected", "count", "lower"),
    # ---- wire -------------------------------------------------------
    _layer("service.protocol.encode_request_us", "us", "lower", WIRE_WORKLOADS),
    _layer("service.protocol.decode_request_us", "us", "lower", WIRE_WORKLOADS),
    _layer("service.protocol.encode_response_us", "us", "lower", WIRE_WORKLOADS),
    _layer("service.protocol.decode_response_us", "us", "lower", WIRE_WORKLOADS),
    _layer("service.protocol.request_bytes", "B", "lower", WIRE_WORKLOADS),
    _layer("service.protocol.response_bytes", "B", "lower", WIRE_WORKLOADS),
    _layer("service.server.ping_us", "us", "lower", WIRE_WORKLOADS),
    _layer("service.server.wire_overhead_us", "us", "lower", WIRE_WORKLOADS),
    # ---- durability (churn_durable only) ----------------------------
    _layer("io.wal.append_us", "us", "lower", (CHURN,)),
    _layer("io.wal.appends", "count", "lower", (CHURN,)),
    _layer("io.wal.syncs", "count", "lower", (CHURN,)),
    _layer("io.wal.bytes", "B", "lower", (CHURN,)),
    _layer("exec.segments.stall_count", "count", "lower", (CHURN,)),
    _layer("exec.segments.stall_total_s", "s", "lower", (CHURN,)),
    _layer("exec.segments.objects_rebuilt_per_insert", "count", "lower", (CHURN,)),
    _layer("exec.segments.segments_at_end", "count", "lower", (CHURN,)),
    _layer("exec.segments.fanout_query_us", "us", "lower", (CHURN,)),
    _layer("exec.durable.replay_records_per_s", "1/s", "higher", (CHURN,)),
    _layer("io.snapshot.save_s", "s", "lower"),
    _layer("io.snapshot.load_s", "s", "lower"),
    _layer("io.snapshot.bytes", "B", "lower"),
    # ---- trace ------------------------------------------------------
    _layer("host.speed_factor", "ratio", "lower"),
    _layer("trace.overhead_ratio", "ratio", "lower"),
    _layer("trace.engine_share", "ratio", "lower", WIRE_WORKLOADS),
    _layer("trace.verify_share_of_engine", "ratio", "lower", WIRE_WORKLOADS),
    _layer("trace.wire_share", "ratio", "lower", WIRE_WORKLOADS),
    _layer("trace.stall_share_of_insert", "ratio", "lower", (CHURN,)),
]

REGISTRY: Dict[str, Metric] = {metric.name: metric for metric in _METRICS}
