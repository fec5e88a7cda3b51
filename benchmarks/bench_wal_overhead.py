"""WAL insert-throughput overhead per sync policy, vs a no-WAL baseline.

Not a paper figure — this prices the durability layer (PR 5).  Every
acknowledged mutation is appended to the write-ahead log *before* the
engine applies it, so the insert path gains a serialization + write
(+ fsync, per policy) on top of the segmented engine's own buffered
append and amortised segment builds.  The question an operator needs
answered: what does each point on the durability dial cost?

* **no wal**  — the raw :class:`~repro.exec.segments.SegmentedSealSearch`
  insert path (the ceiling);
* **wal none** — append + OS-buffered flush, no fsync (durability on
  the OS's schedule; loses the crash guarantee, keeps the replay log);
* **wal batch** — group commit: one fsync per ``GROUP_SIZE`` appends
  (the production setting — bounded loss window, amortised fsync cost);
* **wal always** — one fsync per insert (strict durability, the floor).

Also reported: recovery cost — wall seconds for :func:`repro.exec.
durable.recover` to replay the full insert log back into an engine,
the number that bounds restart time after a crash.

The acceptance gate asserts group commit keeps at least half the
baseline insert throughput (``batch ≥ 0.5× no-wal``).

Scaled by ``REPRO_BENCH_N`` (churn volume; default 10000).  Results
print as a fixed-width table plus a JSON report; set
``REPRO_BENCH_JSON=<dir>`` to also write the JSON to a file (CI uploads
it as the bench artifact).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.bench import format_table
from repro.exec.durable import DurableSegmentedSealSearch, recover
from repro.exec.segments import SegmentedSealSearch

from benchmarks.conftest import emit, make_twitter_corpus, report_json

WAL_N = int(os.environ.get("REPRO_BENCH_N", "10000"))
METHOD = "token"
BUFFER_CAP = 256
GROUP_SIZE = 32

#: The acceptance floor: group commit must keep at least this fraction
#: of the no-WAL insert throughput.
BATCH_FLOOR = 0.5


@pytest.fixture(scope="module")
def churn_objects():
    return make_twitter_corpus(WAL_N)


def _timed_inserts(engine, objects) -> float:
    started = time.perf_counter()
    for obj in objects:
        engine.insert(obj.region, obj.tokens)
    return time.perf_counter() - started


@pytest.mark.benchmark(group="wal")
def test_wal_insert_overhead(benchmark, churn_objects, tmp_path):
    def run():
        stats = {}
        baseline = SegmentedSealSearch(method=METHOD, buffer_capacity=BUFFER_CAP)
        seconds = _timed_inserts(baseline, churn_objects)
        stats["no wal"] = {
            "inserts_per_sec": len(churn_objects) / seconds,
            "syncs": 0,
        }
        for policy in ("none", "batch", "always"):
            root = tmp_path / policy
            root.mkdir()
            engine = DurableSegmentedSealSearch.create(
                method=METHOD,
                wal_path=root / "engine.wal",
                snapshot_path=root / "engine.pkl",
                sync=policy,
                group_size=GROUP_SIZE,
                buffer_capacity=BUFFER_CAP,
            )
            seconds = _timed_inserts(engine, churn_objects)
            engine.close()
            stats[f"wal {policy}"] = {
                "inserts_per_sec": len(churn_objects) / seconds,
                "syncs": engine.wal.syncs,
            }
            if policy == "batch":
                started = time.perf_counter()
                recovered = recover(root / "engine.pkl", root / "engine.wal")
                stats["recover_seconds"] = time.perf_counter() - started
                assert len(recovered) == len(engine)
                recovered.close()
        return stats

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    ceiling = stats["no wal"]["inserts_per_sec"]
    rows = {
        label: [
            round(row["inserts_per_sec"]),
            f"{row['inserts_per_sec'] / ceiling:.2f}x",
            row["syncs"],
        ]
        for label, row in stats.items()
        if label != "recover_seconds"
    }
    title = (
        f"WAL insert overhead — {METHOD} method, {len(churn_objects)} inserts, "
        f"buffer {BUFFER_CAP}, group size {GROUP_SIZE}; replay of the full log "
        f"took {stats['recover_seconds']:.2f}s"
    )
    emit(format_table(title, "engine", ["inserts/s", "vs no wal", "fsyncs"], rows))
    report_json("bench_wal_overhead.json", title, stats)

    batch_ratio = stats["wal batch"]["inserts_per_sec"] / ceiling
    assert batch_ratio >= BATCH_FLOOR, (
        f"group-commit WAL kept only {batch_ratio:.2f}x of the no-WAL insert "
        f"throughput (floor {BATCH_FLOOR}x)"
    )
