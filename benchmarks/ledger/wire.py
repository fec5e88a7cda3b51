"""The three wire workloads: ``fig16_large``, ``mixed_regimes``, ``hot_zipf``.

Topology: the shipped default engine (``build_method(corpus, "planned",
weighter)``, columnar backend, unfitted coefficients) wrapped in a
default ``QueryService`` (cache on, capacity 1024), exposed by an
in-process ``NetworkServer`` on loopback and loaded by one
``NetworkClient`` in a closed loop.
"""

from __future__ import annotations

import itertools
import os
import time
from collections import Counter
from contextlib import ExitStack
from typing import Dict, List, Optional

from repro import BatchExecutor, NetworkClient, NetworkServer, QueryService, TokenWeighter, build_method
from repro.service.protocol import (
    decode_payload,
    encode_frame,
    query_from_wire,
    query_to_wire,
    result_from_wire,
    result_to_wire,
)

from .harness import (
    HostSpeed,
    WorkloadResult,
    at_reference_speed,
    closed_loop,
    latency_row,
    mean_us,
    peak_rss_mb,
    probe_snapshot,
    put_pass_medians,
    scratch_dir,
    service_counters,
    work_counts,
)
from .inputs import QueryInputs
from .metrics import FIG16, MEMBERS, Scale
from .proxies import TracedPlanner, TracedService, planner_spans
from .spans import SpanRecorder, self_times, totals_by_name

_HEADER = 4  # frame length prefix, bytes


def _serve(stack: ExitStack, engine, front=lambda service: service):
    """service → server → client around ``engine``; torn down by ``stack``."""
    service = stack.enter_context(QueryService(engine))
    server = stack.enter_context(NetworkServer(front(service)))
    client = stack.enter_context(NetworkClient(*server.address))
    return service, client


def run(workload: str, inputs: QueryInputs, scale: Scale, passes: int,
        trace: bool, result: WorkloadResult) -> Optional[SpanRecorder]:
    corpus, queries, sequence = inputs.corpus, inputs.queries, inputs.sequence
    speed = HostSpeed()
    with ExitStack() as stack:
        # ---- set-up (timed; input generation happened before) --------
        begin = time.perf_counter()
        weighter = TokenWeighter(obj.tokens for obj in corpus)
        weighter_s = time.perf_counter() - begin
        engine = build_method(corpus, "planned", weighter)
        planner_s = time.perf_counter() - begin - weighter_s
        service, client = _serve(stack, engine)
        result.put("setup_s", time.perf_counter() - begin)

        # ---- reference answers --------------------------------------
        # Every reply is checked against the in-process engine; its
        # SearchStats double as the exact per-query work counts.
        reference = [engine.search(query) for query in queries]
        expected = [ref.answers for ref in reference]
        _check_against_naive(corpus, weighter, queries, expected, scale, result)

        # ---- untimed warm-up, then timed passes ---------------------
        groups = [
            list(range(start, min(start + scale.batch_group, len(queries))))
            for start in range(0, len(queries), scale.batch_group)
        ] if inputs.batch else []

        def run_pass() -> Dict[str, float]:
            speed.take()
            latencies, failed, wall = closed_loop(client.query, queries, sequence, expected, speed)
            result.count(len(sequence), failed)
            row = latency_row(latencies, wall)
            begin = time.perf_counter() - speed.spent
            for group in groups:
                speed.tick()
                replies = client.query_batch([queries[i] for i in group])
                wrong = sum(reply.answers != expected[i] for reply, i in zip(replies, group))
                result.count(len(group), wrong)
            batch_wall = time.perf_counter() - speed.spent - begin
            batched = sum(map(len, groups))
            if batched:
                row["batch_qps"] = batched / batch_wall
            row["ops_per_s"] = (len(sequence) + batched) / (wall + batch_wall)
            factor = speed.take()
            return {**at_reference_speed(row, factor), "host.speed_factor": factor}

        run_pass()
        put_pass_medians(result, [run_pass() for _ in range(passes)])
        result.put("peak_rss_mb", peak_rss_mb())
        result.put("index_bytes_per_object", engine.index_size().page_bytes / len(corpus))

        # ---- exact counts (cost nothing: already measured) ----------
        result.put_all(work_counts([ref.stats for ref in reference]))
        chosen = Counter(ref.stats.method.partition(":")[2] for ref in reference)
        for member in MEMBERS:
            result.put(f"exec.planner.choice_share.{member}", chosen[member] / len(reference))
        result.put_all(service_counters(service.metrics()))
        result.put("text.weighter_build_s", weighter_s)
        result.put("exec.planner.build_s", planner_s)
        if not trace:
            return None

        # ---- traced run ---------------------------------------------
        recorder = SpanRecorder()
        with ExitStack() as traced:
            traced.enter_context(planner_spans(engine, recorder))
            _, traced_client = _serve(
                traced, TracedPlanner(engine, recorder),
                front=lambda inner: TracedService(inner, recorder),
            )
            counter = itertools.count()

            def send(query):
                with recorder.request(next(counter), "client.query"):
                    return traced_client.query(query)

            speed.take()
            closed_loop(send, queries, sequence, expected, speed)          # warm-up
            warm = len(recorder.spans)
            latencies, failed, wall = closed_loop(send, queries, sequence, expected, speed)
            result.count(len(sequence), failed)
            factor = speed.take()
        traced_p50 = latency_row(latencies, wall)["query_p50_ms"] / factor
        result.put("trace.overhead_ratio", traced_p50 / result.metrics["query_p50_ms"].value)
        _span_metrics(recorder.spans, warm, sequence, reference, factor, result)

        # ---- direct layer probes ------------------------------------
        sample = queries[: scale.probe_sample]
        _probe_engine(engine, sample, speed, result)
        _probe_service(service, sample, speed, result)
        _probe_wire(client, sample, reference, speed, result)
        with scratch_dir() as scratch:
            probe_snapshot(engine, scratch / "engine.pkl", speed, result)
        for name, member in engine.methods.items():
            result.put(f"index.bytes.{name}", member.index_size().page_bytes)
        if workload == FIG16:
            # Raw seconds, like setup_s: one uninterruptible call each.
            for name in engine.methods:
                begin = time.perf_counter()
                build_method(corpus, name, weighter)
                result.put(f"filters.{name}.build_s", time.perf_counter() - begin)
        return recorder


def _check_against_naive(corpus, weighter, queries, expected, scale, result) -> None:
    naive = build_method(corpus, "naive", weighter)
    stride = max(1, len(queries) // scale.naive_sample)
    sampled = range(0, len(queries), stride)
    wrong = sum(naive.search(queries[i]).answers != expected[i] for i in sampled)
    result.count(len(sampled), wrong)


def _span_metrics(spans: List[list], warm: int, sequence, reference, factor: float,
                  result: WorkloadResult) -> None:
    """Layer times from the spans, at the reference speed (``factor`` is
    the host's over both traced passes).  Means use the warm-up too (on
    ``hot_zipf`` the engine only runs there); shares the timed pass."""
    everything = totals_by_name(spans)

    def mean(name: str, field: str) -> float:
        entry = everything.get(name)
        return entry[field] / entry["count"] / factor * 1e6 if entry else 0.0

    result.put("exec.planner.plan_us", mean("exec.planner.plan", "total"))
    result.put("filters.probe_us", mean("filters.candidates", "total"))
    result.put("core.verification.verify_us", mean("core.verification.verify", "total"))
    result.put("exec.pipeline.overhead_us", mean("exec.pipeline.search", "self"))
    result.put("service.server.wire_overhead_us", mean("client.query", "self"))

    # Request r asked query sequence[r mod pass length], whose candidate
    # count the reference pass recorded.
    verified = sum(
        reference[sequence[span[4] % len(sequence)]].stats.candidates
        for span in spans if span[0] == "core.verification.verify"
    )
    verify_s = everything.get("core.verification.verify", {"total": 0.0})["total"]
    result.put("core.verification.ns_per_candidate",
               verify_s / verified / factor * 1e9 if verified else 0.0)

    # A service span with an engine child is a miss; its self time is
    # what the service adds on top of the engine.
    own = self_times(spans)
    misses = {span[3] for span in spans if span[0] == "exec.pipeline.search"}
    result.put(
        "service.service.miss_overhead_us",
        sum(own[i] for i in misses) / len(misses) / factor * 1e6 if misses else 0.0,
    )

    timed = totals_by_name(spans, warm)
    root = timed["client.query"]["total"]
    engine = timed.get("exec.pipeline.search", {"total": 0.0})["total"]
    verify = timed.get("core.verification.verify", {"total": 0.0})["total"]
    result.put("trace.engine_share", engine / root)
    result.put("trace.verify_share_of_engine", verify / engine if engine else 0.0)
    result.put("trace.wire_share", timed["client.query"]["self"] / root)


def _probe_engine(engine, sample, speed: HostSpeed, result: WorkloadResult) -> None:
    """Planner regret and batch speed-up, called directly."""
    def suite(method) -> float:
        def singles() -> None:
            for query in sample:
                method.search(query)

        return min(speed.timed(singles)[1] for _ in range(2))

    planned = suite(engine)
    result.put(
        "exec.planner.regret_ratio",
        planned / min(suite(member) for member in engine.methods.values()),
    )
    batch = min(speed.timed(BatchExecutor().run, engine, sample)[1] for _ in range(2))
    result.put("exec.batch.speedup", planned / batch)


def _probe_service(service, sample, speed: HostSpeed, result: WorkloadResult) -> None:
    """Cache-hit cost: fill the cache with the sample, then time hits."""
    sample = sample[:64]

    def ask() -> None:
        for query in sample:
            service.query(query)

    ask()
    result.put("service.cache.hit_us", speed.timed(ask)[1] / len(sample) * 1e6)


def _probe_wire(client, sample, reference, speed: HostSpeed, result: WorkloadResult) -> None:
    """Codec costs as direct calls on the workload's own frames."""
    meta = {"ok": True, "epoch": 0, "generation": None, "pid": os.getpid()}
    n = len(sample)
    request_frames = [encode_frame({"op": "query", **query_to_wire(q)}) for q in sample]
    response_frames = [encode_frame({**meta, **result_to_wire(r)}) for r in reference[:n]]

    def per_item(fn, items) -> float:
        return mean_us(speed, lambda: [fn(item) for item in items], calls=1) / n

    result.put("service.protocol.encode_request_us",
               per_item(lambda q: encode_frame({"op": "query", **query_to_wire(q)}), sample))
    result.put("service.protocol.decode_request_us",
               per_item(lambda f: query_from_wire(decode_payload(f[_HEADER:])), request_frames))
    result.put("service.protocol.encode_response_us",
               per_item(lambda r: encode_frame({**meta, **result_to_wire(r)}), reference[:n]))
    result.put("service.protocol.decode_response_us",
               per_item(lambda f: result_from_wire(decode_payload(f[_HEADER:])), response_frames))
    result.put("service.protocol.request_bytes", sum(map(len, request_frames)) / n)
    result.put("service.protocol.response_bytes", sum(map(len, response_frames)) / n)
    result.put("service.server.ping_us", mean_us(speed, client.ping, calls=200))
