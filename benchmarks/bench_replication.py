"""Replication: catch-up lag vs a bounded ingest rate on the primary.

Not a paper figure — this prices the tentpole of the WAL-shipping
replication PR.  The claim under test: a read replica tailing the
primary's log **keeps pace** with a bounded write rate — its byte lag
stays bounded while ingest runs, and once ingest stops it drains to
zero in far less time than the ingest took — so read scale-out never
turns into unbounded staleness.

The run: a durable primary seeded with ``REPRO_BENCH_REPL_N`` objects
serves over TCP with a :class:`ReplicationPrimary` attached; a
:class:`ReplicaApplier` bootstraps from the shipped checkpoint
(timed), then tails while a driver thread inserts
``REPRO_BENCH_REPL_INSERTS`` objects at ``REPRO_BENCH_REPL_RATE``
per second.  A sampler records the replica's byte lag over time; when
ingest stops, the drain to zero lag is timed.  The bench is also a
differential test: the caught-up replica must answer a query workload
bit-identically to the primary.

Asserted at every scale: the replica applied every record, answers
match, and catch-up after ingest stops takes under
``MAX_CATCHUP_SECONDS`` (10 s).
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro import Rect
from repro.bench import format_table
from repro.datasets import generate_queries
from repro.exec.durable import DurableSegmentedSealSearch
from repro.service import NetworkServer, QueryService
from repro.service.replication import ReplicaApplier, ReplicationPrimary

from benchmarks.conftest import emit, make_twitter_corpus, report_json

REPL_N = int(os.environ.get("REPRO_BENCH_REPL_N", "4000"))
REPL_INSERTS = int(os.environ.get("REPRO_BENCH_REPL_INSERTS", "600"))
REPL_RATE = float(os.environ.get("REPRO_BENCH_REPL_RATE", "300"))
REPL_QUERIES = int(os.environ.get("REPRO_BENCH_QUERIES", "16"))

#: The acceptance bar: seconds the replica may take to drain its lag
#: after ingest stops.  Generous — the honest claim is "bounded", and a
#: loaded CI runner should not flake it — while still far below the
#: ingest window at the default rate.
MAX_CATCHUP_SECONDS = 10.0

#: Lag sampling period while ingest runs.
SAMPLE_SECONDS = 0.05


@pytest.fixture(scope="module")
def corpus():
    return make_twitter_corpus(REPL_N)


@pytest.fixture(scope="module")
def repl_queries(corpus):
    return list(
        generate_queries(corpus, "small", num_queries=REPL_QUERIES,
                         seed=13, tau_r=0.2, tau_t=0.2)
    )


def _ingest(primary, count: int, rate: float, space: Rect) -> float:
    """Insert ``count`` objects at ``rate``/s; returns elapsed seconds."""
    interval = 1.0 / rate if rate > 0 else 0.0
    width = (space.x2 - space.x1) or 1.0
    started = time.perf_counter()
    for i in range(count):
        x = space.x1 + (i * 0.37) % width
        primary.insert(
            Rect(x, space.y1, x + 0.5, space.y1 + 0.5),
            {"coffee", f"ingest{i % 7}"},
        )
        target = started + (i + 1) * interval
        delay = target - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
    return time.perf_counter() - started


@pytest.mark.benchmark(group="replication")
def test_replica_catchup_keeps_pace_with_ingest(
    benchmark, corpus, repl_queries, tmp_path
):
    pairs = [(obj.region, obj.tokens) for obj in corpus]
    space = Rect(
        min(o.region.x1 for o in corpus),
        min(o.region.y1 for o in corpus),
        max(o.region.x2 for o in corpus),
        max(o.region.y2 for o in corpus),
    )
    primary = DurableSegmentedSealSearch.create(
        pairs,
        "token",
        wal_path=tmp_path / "primary.wal",
        snapshot_path=tmp_path / "primary.pkl",
        buffer_capacity=256,
    )

    def run():
        service = QueryService(primary, enable_cache=False, workers=2)
        service.replication = ReplicationPrimary(primary)
        samples: list = []
        with service, NetworkServer(service) as server:
            host, port = server.address
            applier = ReplicaApplier(
                host, port, root=tmp_path / "replica", poll_interval=0.002
            )
            boot_started = time.perf_counter()
            applier.start()
            bootstrap_seconds = time.perf_counter() - boot_started

            stop_sampling = threading.Event()

            def sample() -> None:
                while not stop_sampling.is_set():
                    lag = applier.lag_bytes()
                    if lag is not None:
                        samples.append(lag)
                    time.sleep(SAMPLE_SECONDS)

            sampler = threading.Thread(target=sample)
            sampler.start()
            ingest_seconds = _ingest(primary, REPL_INSERTS, REPL_RATE, space)
            drain_started = time.perf_counter()
            deadline = drain_started + MAX_CATCHUP_SECONDS
            while True:
                # The applier owns the lag clock; poll it to zero.  The
                # final fetch is also the final ack, so zero here means
                # every shipped byte was applied.
                lag = applier.lag_bytes()
                position = primary.stable_position
                caught_up = (
                    lag == 0
                    and applier.lineage
                    == (position["generation"], position["offset"])
                )
                if caught_up or time.perf_counter() > deadline:
                    break
                time.sleep(0.005)
            catchup_seconds = time.perf_counter() - drain_started
            stop_sampling.set()
            sampler.join()
            assert caught_up, (
                f"replica failed to drain its lag within {MAX_CATCHUP_SECONDS}s "
                f"of ingest stopping (lag {applier.lag_bytes()} bytes)"
            )

            # Differential: the caught-up replica answers identically.
            expected = [primary.search_query(q).answers for q in repl_queries]
            with applier.service.reading() as (engine, _epoch):
                got = [engine.search_query(q).answers for q in repl_queries]
            assert got == expected, "replica answers diverged from the primary"
            status = applier.status()
            applier.stop()
        return {
            "bootstrap_seconds": bootstrap_seconds,
            "ingest_seconds": ingest_seconds,
            "catchup_seconds": catchup_seconds,
            "applied_records": status["applied_records"],
            "shipments": status["shipments"],
            "max_lag_bytes": max(samples) if samples else 0,
            "mean_lag_bytes": sum(samples) / len(samples) if samples else 0.0,
        }

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    primary.close()

    ingest_rate = REPL_INSERTS / stats["ingest_seconds"]
    title = (
        f"Replication catch-up — {REPL_N}-object primary, {REPL_INSERTS} "
        f"inserts at {REPL_RATE:.0f}/s target ({ingest_rate:.0f}/s achieved)"
    )
    table = {
        "bootstrap": [f"{stats['bootstrap_seconds'] * 1000:.0f} ms"],
        "ingest window": [f"{stats['ingest_seconds']:.2f} s"],
        "lag while ingesting": [
            f"max {stats['max_lag_bytes']} B, "
            f"mean {stats['mean_lag_bytes']:.0f} B"
        ],
        "catch-up after stop": [f"{stats['catchup_seconds'] * 1000:.0f} ms"],
        "records applied": [
            f"{stats['applied_records']} over {stats['shipments']} shipments"
        ],
    }
    emit(format_table(title, "phase", ["measured"], table))
    report_json("bench_replication.json", title, {"stats": stats,
                                                  "ingest_rate": ingest_rate})

    # The replica must have applied every ingested record (the engines
    # already answered identically above; this pins the op count too).
    assert stats["applied_records"] >= REPL_INSERTS
