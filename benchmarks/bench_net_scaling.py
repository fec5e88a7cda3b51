"""Network serving: q/s vs worker-process count over one shared snapshot.

Not a paper figure — this prices the tentpole of the multi-process
serving PR.  The single-process service is GIL-bound: adding client
threads adds contention, not parallelism.  The :class:`ProcessSupervisor`
forks N workers that each ``load_engine(mmap=True)`` the *same* format-5
snapshot — one physical copy of the columnar arrays in the page cache,
N independent interpreters doing filter+verify — so q/s should scale
with cores.

The grid: worker processes ∈ ``PROC_COUNTS`` (1 and 2), result cache
**off** (we are pricing engine work, not dict lookups), ``2 × procs``
client connections replaying the workload.
Every answer is checked against a locally-computed oracle, so the bench
is also a differential test.

The acceptance bar — **≥ 1.5× q/s at 2 workers vs 1** — is asserted
only on multi-core hosts: on a single-core container the workers
timeshare one CPU and parity is the honest expectation (CI's multi-core
runners enforce the claim).  Scaled by ``REPRO_BENCH_N``,
``REPRO_BENCH_QUERIES`` and ``REPRO_BENCH_NET_REPEATS``.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

import pytest

from repro import TokenWeighter, build_method
from repro.bench import format_table
from repro.datasets import generate_queries
from repro.io import save_engine
from repro.service import NetworkClient, ProcessSupervisor

from benchmarks.conftest import emit, make_twitter_corpus, report_json

NET_N = int(os.environ.get("REPRO_BENCH_N", "10000"))
NET_QUERIES = int(os.environ.get("REPRO_BENCH_QUERIES", "16"))
NET_REPEATS = int(os.environ.get("REPRO_BENCH_NET_REPEATS", "6"))
PROC_COUNTS = (1, 2)
METHOD = "token"

#: The multi-core acceptance bar: 2 workers must clear 1.5× 1 worker.
MIN_SCALING = 1.5

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="ProcessSupervisor needs the fork start method",
)


@pytest.fixture(scope="module")
def corpus():
    return make_twitter_corpus(NET_N)


@pytest.fixture(scope="module")
def net_queries(corpus):
    return list(
        generate_queries(corpus, "small", num_queries=NET_QUERIES,
                         seed=13, tau_r=0.2, tau_t=0.2)
    )


@pytest.fixture(scope="module")
def engine(corpus):
    weighter = TokenWeighter(obj.tokens for obj in corpus)
    return build_method(corpus, METHOD, weighter)


@pytest.fixture(scope="module")
def snapshot(engine, tmp_path_factory):
    path = tmp_path_factory.mktemp("net") / "engine.pkl"
    save_engine(engine, path)
    return path


def _drive(address, queries, expected, connections: int, repeats: int):
    """Replay the workload from ``connections`` sockets; verify answers."""
    host, port = address
    errors: list = []

    def client() -> None:
        try:
            with NetworkClient(host, port, timeout=60.0) as net:
                for _ in range(repeats):
                    for i, query in enumerate(queries):
                        result = net.query(query)
                        if result.answers != expected[i]:
                            raise AssertionError(
                                f"query {i}: networked answers {result.answers[:8]} "
                                f"!= oracle {expected[i][:8]}"
                            )
        except BaseException as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    workers = [threading.Thread(target=client) for _ in range(connections)]
    started = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    elapsed = time.perf_counter() - started
    assert not errors, errors[:1]
    requests = connections * repeats * len(queries)
    return requests / elapsed if elapsed else 0.0, requests, elapsed


@pytest.mark.benchmark(group="net")
def test_net_worker_scaling(benchmark, engine, snapshot, net_queries):
    expected = [engine.search(q).answers for q in net_queries]

    def run():
        rows = {}
        for procs in PROC_COUNTS:
            with ProcessSupervisor(
                snapshot,
                workers=procs,
                service_config={"enable_cache": False, "workers": 4},
            ) as supervisor:
                qps, requests, elapsed = _drive(
                    supervisor.address, net_queries, expected,
                    connections=2 * procs, repeats=NET_REPEATS,
                )
            rows[procs] = {
                "qps": qps,
                "requests": requests,
                "elapsed_seconds": elapsed,
                "connections": 2 * procs,
            }
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    cores = os.cpu_count() or 1
    baseline = rows[min(PROC_COUNTS)]["qps"]
    title = (
        f"Network serving q/s vs worker processes — {METHOD} engine, "
        f"{NET_N} objects, {NET_QUERIES} queries × {NET_REPEATS} repeats "
        f"per connection, cache off, {cores} core(s)"
    )
    table = {
        f"{procs} proc": [
            stats["connections"],
            round(stats["qps"]),
            f"{stats['qps'] / baseline:.2f}x" if baseline else "-",
        ]
        for procs, stats in rows.items()
    }
    emit(format_table(title, "workers", ["conns", "q/s", "vs 1 proc"], table))

    scaling = {
        f"{procs}proc": stats["qps"] / baseline if baseline else 0.0
        for procs, stats in rows.items()
    }
    report_json(
        "bench_net_scaling.json", title,
        {"rows": rows, "scaling_vs_min": scaling, "cores": cores},
    )

    # The acceptance bar only binds where the hardware can express it:
    # on one core, forked workers timeshare the CPU and parity is the
    # honest result.  CI runs this on multi-core runners.
    if cores >= 2 and 2 in rows and 1 in rows:
        observed = rows[2]["qps"] / rows[1]["qps"]
        assert observed >= MIN_SCALING, (
            f"2 worker processes reached only {observed:.2f}× the q/s of 1 "
            f"on a {cores}-core host (needs ≥ {MIN_SCALING}×)"
        )
