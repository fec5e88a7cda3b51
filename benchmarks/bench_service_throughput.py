"""Service throughput: q/s and latency vs client threads × cache × churn.

Not a paper figure — this prices the serving layer of this PR.  SEAL's
evaluation (and any real deployment) replays repeated-query workloads:
the same hot regions arrive over and over, which is exactly what the
epoch-keyed result cache converts from milliseconds of filter+verify
into a dict lookup.  The grid:

* **client threads** — concurrent clients hammering one service
  (REPRO_BENCH_SERVICE_THREADS, comma-separated);
* **cache on / off** — the headline ratio; on a repeated workload the
  cache-on rows must clear **≥ 2× q/s** over cache-off (asserted below
  whenever the workload repeats enough for the cache to matter);
* **churn on / off** — a mutator thread inserts into the segmented
  engine during the run, bumping the epoch and invalidating the cache;
  the cache-on-under-churn row prices invalidation honestly.

Each configuration runs as :data:`PASSES` fresh passes (a new engine
and service each, so every pass sees the hit rate one pass gives), the
configurations of a thread count alternating pass by pass.  Reported per
row, from the pass with the median q/s: q/s over the pass's wall time,
p50/p99 request latency (from the service's own histogram), cache hit
rate, rejected count.  The cache gate compares median q/s: at CI's
quick-mode scale one pass serves a few dozen requests in a few
milliseconds, so thread start-up and a single slow request set one
pass's q/s.  Single-CPU GIL container: client threads add contention, not
parallel speed-up — which is the honest serving regime to measure here.

Scaled by ``REPRO_BENCH_N`` (corpus; default 10000),
``REPRO_BENCH_QUERIES`` (distinct queries, default 16),
and ``REPRO_BENCH_SERVICE_REPEATS`` (workload replays per client,
default 8); the churn run inserts ``CHURN_INSERTS`` (64) objects.
Results print as a table plus a JSON report; ``REPRO_BENCH_JSON=<dir>``
also writes the JSON for the CI artifact upload.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro import SegmentedSealSearch
from repro.bench import format_table
from repro.datasets import generate_queries
from repro.service import QueryService

from benchmarks.conftest import emit, make_twitter_corpus, report_json

SERVICE_N = int(os.environ.get("REPRO_BENCH_N", "10000"))
SERVICE_QUERIES = int(os.environ.get("REPRO_BENCH_QUERIES", "16"))
REPEATS = int(os.environ.get("REPRO_BENCH_SERVICE_REPEATS", "8"))
THREAD_COUNTS = tuple(
    int(v) for v in os.environ.get("REPRO_BENCH_SERVICE_THREADS", "1,4").split(",") if v
)
CHURN_INSERTS = 64
METHOD = "token"

#: The cache-on/cache-off acceptance ratio on the repeated workload.
MIN_CACHE_SPEEDUP = 2.0

#: Fresh passes per configuration; rows and the gate read their median.
PASSES = 5


@pytest.fixture(scope="module")
def corpus_objects():
    """One generator run: first N objects seed the engine, rest churn."""
    return make_twitter_corpus(SERVICE_N + CHURN_INSERTS)


@pytest.fixture(scope="module")
def corpus_pairs(corpus_objects):
    pairs = [(obj.region, obj.tokens) for obj in corpus_objects[:SERVICE_N]]
    churn = [(obj.region, obj.tokens) for obj in corpus_objects[SERVICE_N:]]
    return pairs, churn


@pytest.fixture(scope="module")
def service_queries(corpus_objects):
    return list(
        generate_queries(
            corpus_objects[:SERVICE_N], "small", num_queries=SERVICE_QUERIES,
            seed=13, tau_r=0.2, tau_t=0.2,
        )
    )


def _drive(service: QueryService, queries, threads: int, churn) -> dict:
    """Replay the workload from ``threads`` clients; optionally churn."""
    errors: list = []

    def client() -> None:
        try:
            for _ in range(REPEATS):
                for query in queries:
                    service.query(query)
        except BaseException as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    def mutator() -> None:
        try:
            for region, tokens in churn:
                service.insert(region, tokens)
                time.sleep(0.0005)  # spread bumps across the run
        except BaseException as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    workers = [threading.Thread(target=client) for _ in range(threads)]
    if churn:
        workers.append(threading.Thread(target=mutator))
    started = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    elapsed = time.perf_counter() - started
    assert not errors, errors[:1]
    metrics = service.metrics()
    requests = threads * REPEATS * len(queries)
    cache = metrics["cache"]
    return {
        "threads": threads,
        "requests": requests,
        "elapsed_seconds": elapsed,
        "qps": requests / elapsed if elapsed else 0.0,
        "p50_ms": metrics["latency_ms"]["p50_ms"],
        "p99_ms": metrics["latency_ms"]["p99_ms"],
        "cache_hit_rate": cache["hit_rate"] if cache is not None else None,
        "rejected": metrics["admission"]["rejected"],
        "final_epoch": metrics["epoch"],
    }


@pytest.mark.benchmark(group="service")
def test_service_throughput_grid(benchmark, corpus_pairs, service_queries):
    pairs, churn = corpus_pairs

    def one_pass(threads: int, cache_on: bool, churn_on: bool) -> dict:
        engine = SegmentedSealSearch(pairs, METHOD, buffer_capacity=256)
        # Warm the engine, not the service (the cache stays empty): a
        # fresh engine's first query builds its verifier's box block.
        engine.search_query(service_queries[0])
        service = QueryService(
            engine,
            enable_cache=cache_on,
            cache_capacity=4 * SERVICE_QUERIES,
            workers=4,
            max_queue=max(64, 8 * threads * SERVICE_QUERIES),
        )
        try:
            return _drive(service, service_queries, threads, churn if churn_on else ())
        finally:
            service.close()

    def run():
        passes = {}
        for threads in THREAD_COUNTS:
            for _ in range(PASSES):
                for cache_on in (False, True):
                    for churn_on in (False, True):
                        key = (
                            f"{threads}t cache={'on' if cache_on else 'off'} "
                            f"churn={'on' if churn_on else 'off'}"
                        )
                        passes.setdefault(key, []).append(
                            one_pass(threads, cache_on, churn_on))
        return passes

    passes = benchmark.pedantic(run, rounds=1, iterations=1)
    # Each row is its configuration's median pass by q/s.
    rows = {
        key: sorted(runs, key=lambda stats: stats["qps"])[len(runs) // 2]
        for key, runs in passes.items()
    }

    title = (
        f"Service throughput — {METHOD} segmented engine, {SERVICE_N} objects, "
        f"{SERVICE_QUERIES} queries × {REPEATS} repeats per client, "
        f"{CHURN_INSERTS} churn inserts, median of {PASSES} passes"
    )
    table = {
        key: [
            round(stats["qps"]),
            f"{stats['p50_ms']:.3f}",
            f"{stats['p99_ms']:.2f}",
            "-" if stats["cache_hit_rate"] is None else f"{100 * stats['cache_hit_rate']:.0f}%",
            stats["rejected"],
        ]
        for key, stats in rows.items()
    }
    emit(format_table(title, "configuration",
                      ["q/s", "p50 ms", "p99 ms", "hit rate", "rejected"], table))

    speedups = {}
    for threads in THREAD_COUNTS:
        on = rows[f"{threads}t cache=on churn=off"]["qps"]
        off = rows[f"{threads}t cache=off churn=off"]["qps"]
        speedups[f"{threads}t"] = on / off if off else 0.0
    report_json(
        "bench_service_throughput.json",
        title,
        {
            "rows": rows,
            "pass_qps": {key: [stats["qps"] for stats in runs] for key, runs in passes.items()},
            "cache_speedup_no_churn": speedups,
        },
    )

    # The acceptance bar: on a repeated workload the cache must be worth
    # at least 2× median q/s over running every request through the engine.
    if REPEATS >= 4:
        for label, speedup in speedups.items():
            assert speedup >= MIN_CACHE_SPEEDUP, (
                f"cache-on q/s only {speedup:.2f}× cache-off at {label} "
                f"(needs ≥ {MIN_CACHE_SPEEDUP}×)"
            )
