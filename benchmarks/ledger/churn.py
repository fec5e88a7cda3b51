"""``churn_durable``: writes beside reads on the WAL-backed segmented engine.

In-process through ``QueryService`` over ``DurableSegmentedSealSearch``:
a fixed script of insert / query / every-4th-step delete, then
``checkpoint()``, a tail of inserts, ``close()`` and ``recover()``.  One
pass — the script *is* the input, so ``--seconds`` does not cut it: a
shorter script would seal and merge at different points and none of its
counts would compare.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Dict, List, Optional

from repro import (
    DurableSegmentedSealSearch,
    QueryService,
    SealError,
    SpatioTextualObject,
    build_method,
)
from repro.exec.durable import recover
from repro.io.snapshot import load_engine, sidecar_path
from repro.io.wal import HEADER_SIZE, WriteAheadLog

from .harness import (
    HostSpeed,
    WorkloadResult,
    peak_rss_mb,
    percentile,
    probe_snapshot,
    scratch_dir,
    service_counters,
    work_counts,
)
from .inputs import ChurnInputs
from .metrics import REGISTRY, STALL_SECONDS, Scale
from .proxies import TracedDurable
from .spans import SpanRecorder, totals_by_name

ENGINE_OPTIONS = dict(sync="batch", group_size=32, buffer_capacity=256, merge_fanout=4)


def _pairs(objects):
    return [(obj.region, obj.tokens) for obj in objects]


def run(inputs: ChurnInputs, scale: Scale, trace: bool, result: WorkloadResult) -> Optional[SpanRecorder]:
    speed = HostSpeed()
    with scratch_dir() as scratch:
        untraced = _script(inputs, scale, scratch / "untraced", None, speed, result)
    latencies = untraced["latencies"]
    queries = sorted(latencies["query"])
    inserts = sorted(latencies["insert"])
    busy = sum(map(sum, latencies.values()))
    result.put_all({name: value for name, value in untraced.items() if name in REGISTRY})
    result.put("query_p50_ms", percentile(queries, 0.50) * 1e3)
    result.put("query_p99_ms", percentile(queries, 0.99) * 1e3)
    # Rates are over time spent inside operations, not the script's wall:
    # between them the harness re-asks the engine to check each reply.
    result.put("query_qps", len(queries) / sum(queries))
    result.put("insert_ops_per_s", len(inserts) / sum(inserts))
    result.put("insert_p50_ms", percentile(inserts, 0.50) * 1e3)
    result.put("insert_stall_max_ms", inserts[-1] * 1e3)
    result.put("ops_per_s", sum(map(len, latencies.values())) / (
        busy + untraced["checkpoint_s"] + untraced["close_s"] + untraced["recover_s"]))
    result.put("peak_rss_mb", peak_rss_mb())
    result.passes = 1
    if not trace:
        return None

    recorder = SpanRecorder()
    with scratch_dir() as scratch:
        traced = _script(inputs, scale, scratch / "traced", recorder, speed, result)
        _probe_storage(inputs, scratch, speed, result)
    traced_queries = sorted(traced["latencies"]["query"])
    result.put("trace.overhead_ratio",
               percentile(traced_queries, 0.50) / percentile(queries, 0.50))
    result.put("exec.segments.objects_rebuilt_per_insert", traced["objects_rebuilt_per_insert"])

    # An insert can run for seconds, so each span is judged at the host's
    # speed over its own length; the short ones at the script's.
    factor = traced["host.speed_factor"]
    insert_spans = [(end - start) / speed.factor(start, end)
                    for name, start, end, _, _ in recorder.spans
                    if name == "exec.durable.insert"]
    stalls = [seconds for seconds in insert_spans if seconds > STALL_SECONDS]
    result.put("exec.segments.stall_count", len(stalls))
    result.put("exec.segments.stall_total_s", sum(stalls))
    result.put("trace.stall_share_of_insert", sum(stalls) / sum(insert_spans))
    spans = totals_by_name(recorder.spans)
    search = spans["exec.segments.search"]
    result.put("exec.segments.fanout_query_us", search["total"] / search["count"] / factor * 1e6)
    # Through the service a query is cache lookup + admission + engine;
    # every insert bumps the epoch, so every lookup misses.
    service_query = spans["client.query"]
    result.put("service.service.miss_overhead_us",
               service_query["self"] / service_query["count"] / factor * 1e6)
    return recorder


def _script(inputs: ChurnInputs, scale: Scale, directory, recorder: Optional[SpanRecorder],
            speed: HostSpeed, result: WorkloadResult) -> Dict[str, object]:
    """Run the whole op script once; ``recorder`` switches the spans on.
    Every time that comes back is at the reference host speed."""
    directory.mkdir()
    wal_path, snapshot_path = directory / "wal", directory / "snapshot.pkl"
    out: Dict[str, object] = {}
    clock = time.perf_counter

    begin = clock()
    durable = DurableSegmentedSealSearch.create(
        _pairs(inputs.base), "planned",
        wal_path=wal_path, snapshot_path=snapshot_path, **ENGINE_OPTIONS,
    )
    engine = durable if recorder is None else TracedDurable(durable, recorder)
    service = QueryService(engine)
    out["setup_s"] = clock() - begin
    started = clock()

    def timed(kind: str, request_id: int, call, *args):
        """One client op, timed; under a root span when tracing."""
        speed.tick()
        begin = clock()
        try:
            if recorder is None:
                value = call(*args)
            else:
                with recorder.request(request_id, f"client.{kind}"):
                    value = call(*args)
        except SealError:
            value = None
        stamps[kind].append((begin, clock()))
        return value

    def insert(request_id: int, obj) -> bool:
        """One scripted insert; False when the engine mis-assigned its oid."""
        position = durable.wal.position
        oid = timed("insert", request_id, service.insert, obj.region, obj.tokens)
        tally["wal_bytes"] += durable.wal.position - position
        if recorder is not None:
            # Write amplification: objects in segments that newly appear.
            now = Counter(durable.segment_sizes())
            tally["rebuilt"] += sum((now - state["segments"]).elements())
            state["segments"] = now
        return oid == len(inputs.base) + len(stamps["insert"]) - 1

    stamps: Dict[str, List[tuple]] = {"insert": [], "query": [], "delete": []}
    tally = Counter()
    state = {"segments": Counter(durable.segment_sizes())}
    attempted = failed = 0
    work = []
    with service:
        for step, (obj, query) in enumerate(zip(inputs.inserts, inputs.queries)):
            failed += not insert(3 * step, obj)
            reply = timed("query", 3 * step + 1, service.query, query)
            direct = durable.search_query(query)
            failed += reply is None or reply.answers != direct.answers
            work.append(direct.stats)
            attempted += 2

            victim = inputs.deletes.get(step)
            if victim is not None:
                failed += timed("delete", 3 * step + 2, service.delete, victim) is not True
                attempted += 1

        out.update(work_counts(work))
        out.update(service_counters(service.metrics()))
        out["wal_bytes_per_insert"] = tally["wal_bytes"] / len(inputs.inserts)
        out["io.wal.appends"] = durable.wal.appends
        out["io.wal.syncs"] = durable.wal.syncs
        out["io.wal.bytes"] = durable.wal.position - HEADER_SIZE

        out["checkpoint_s"] = speed.timed(service.checkpoint)[1]
        out["snapshot_bytes_per_object"] = (
            snapshot_path.stat().st_size + sidecar_path(snapshot_path).stat().st_size
        ) / len(durable)

        for offset, obj in enumerate(inputs.coda):
            failed += not insert(3 * len(inputs.inserts) + offset, obj)
            attempted += 1
        out["objects_rebuilt_per_insert"] = tally["rebuilt"] / len(stamps["insert"])

        out["index_bytes_per_object"] = durable.index_size().page_bytes / len(durable)
        out["exec.segments.segments_at_end"] = durable.num_segments
        sample = inputs.queries[:: max(1, len(inputs.queries) // scale.naive_sample)]
        before = [durable.search_query(query).answers for query in sample]
        out["close_s"] = speed.timed(durable.close)[1]

    recovered, out["recover_s"] = speed.timed(
        lambda: recover(snapshot_path, wal_path, sync="batch"))
    out["host.speed_factor"] = speed.factor(started, clock())
    try:
        out["exec.durable.replay_records_per_s"] = (
            recovered.recovery["records_replayed"] / out["recover_s"]
        )
        failed += _check_recovered(recovered, inputs, sample, before)
        attempted += len(sample)
    finally:
        recovered.close()
    # A stall is judged by the samples either side of it, an append by
    # the ones around it.
    out["latencies"] = {
        kind: [(end - begin) / speed.factor(begin, end) for begin, end in pairs]
        for kind, pairs in stamps.items() if pairs
    }
    result.count(attempted, failed)
    return out


def _check_recovered(recovered, inputs: ChurnInputs, sample, before) -> int:
    """Recovered answers ≡ pre-close answers ≡ a from-scratch exact scan
    of the surviving objects (under the engine's own idf weights: the
    segmented engine refreshes them only at full compactions)."""
    deleted = set(inputs.deletes.values())
    survivors = [
        (oid, obj) for oid, obj in enumerate(inputs.base + inputs.inserts + inputs.coda)
        if oid not in deleted
    ]
    scan = build_method(
        [SpatioTextualObject(local, obj.region, obj.tokens)
         for local, (_, obj) in enumerate(survivors)],
        "naive", recovered.weighter,
    )
    wrong = 0
    for query, answers in zip(sample, before):
        scanned = sorted(survivors[local][0] for local in scan.search(query).answers)
        wrong += not (recovered.search_query(query).answers == answers == scanned)
    return wrong


def _probe_storage(inputs: ChurnInputs, scratch, speed: HostSpeed, result: WorkloadResult) -> None:
    """WAL append and snapshot save/load as direct calls: the script's
    own insert records on a scratch log, the engine of the traced
    script's checkpoint."""
    records = [
        {"op": "insert", "oid": len(inputs.base) + i,
         "region": list(obj.region.as_tuple()), "tokens": sorted(obj.tokens)}
        for i, obj in enumerate(inputs.inserts)
    ]
    with WriteAheadLog.create(
        scratch / "probe.wal", config={"method": "planned"},
        sync=ENGINE_OPTIONS["sync"], group_size=ENGINE_OPTIONS["group_size"],
    ) as log:
        def append_all() -> None:
            for record in records:
                log.append(record)

        result.put("io.wal.append_us", speed.timed(append_all)[1] / len(records) * 1e6)

    probe_snapshot(load_engine(scratch / "traced" / "snapshot.pkl"), scratch / "probe.pkl",
                   speed, result)
