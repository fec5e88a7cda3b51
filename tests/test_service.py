"""Tests for the QueryService facade: answers, admission, metrics.

The facade's contract: identical answers to driving the engine
directly, loud saturation behavior (rejected / expired, never silent
unbounded queueing), and a JSON-serializable metrics document that
reflects what actually happened.
"""

from __future__ import annotations

import json
import sys
import threading
import time

import pytest

from repro import (
    AdmissionRejected,
    DeadlineExceeded,
    Query,
    Rect,
    SealSearch,
    SegmentedSealSearch,
)
from repro.core.errors import ServiceError
from repro.core.stats import SearchResult, SearchStats
from repro.service import AdmissionController, QueryService
from repro.service.metrics import LatencyHistogram
from service_testlib import Caller, GatedEngine, ThreadReportingEngine, wait_until


def make_engine(n: int = 8) -> SealSearch:
    return SealSearch(
        [(Rect(i * 2, 0, i * 2 + 3, 3), {"a", f"t{i % 3}"}) for i in range(n)],
        method="token",
    )


def workload(n: int = 6):
    return [
        Query(Rect(i, 0, i + 4, 3), frozenset({"a", f"t{i % 3}"}), 0.1, 0.1)
        for i in range(n)
    ]


class CountingEngine:
    """Counts executions; no ``search_batch`` so bursts fall back to
    per-query execution (making coalescing observable)."""

    def __init__(self):
        self.calls = 0

    def search_query(self, query: Query) -> SearchResult:
        self.calls += 1
        return SearchResult(answers=[self.calls], stats=SearchStats(results=1))


class TestAnswers:
    def test_service_matches_direct_engine(self):
        engine = make_engine()
        with QueryService(engine, workers=2) as service:
            for query in workload():
                assert service.query(query).answers == engine.search_query(query).answers

    def test_search_convenience(self):
        with QueryService(make_engine(), workers=2) as service:
            result = service.search(Rect(0, 0, 4, 3), {"a", "t0"}, 0.1, 0.1)
            assert result.answers == service.query(workload(1)[0]).answers

    def test_repeat_queries_hit_the_cache_with_equal_answers(self):
        with QueryService(make_engine(), workers=2) as service:
            first = [service.query(q).answers for q in workload()]
            second = [service.query(q).answers for q in workload()]
            assert first == second
            counters = service.cache.counters()
            assert counters["hits"] == len(workload())
            assert counters["misses"] == len(workload())

    def test_cache_disabled_runs_engine_every_time(self):
        engine = CountingEngine()
        with QueryService(engine, enable_cache=False, workers=2) as service:
            query = workload(1)[0]
            service.query(query)
            service.query(query)
            assert engine.calls == 2
            assert service.metrics()["cache"] is None

    def test_batch_matches_per_query_in_order(self):
        engine = make_engine()
        queries = workload()
        with QueryService(engine, workers=2) as service:
            results = service.query_batch(queries)
        expected = [engine.search_query(q).answers for q in queries]
        assert [r.answers for r in results] == expected

    def test_batch_coalesces_duplicates_and_copies(self):
        engine = CountingEngine()
        query = workload(1)[0]
        with QueryService(engine, workers=2) as service:
            results = service.query_batch([query, query, query])
        assert engine.calls == 1  # one execution for three burst members
        assert [r.answers for r in results] == [[1], [1], [1]]
        assert results[0] is not results[1] and results[1] is not results[2]
        assert results[0].stats is not results[1].stats

    def test_batch_coalesces_value_equal_queries(self):
        """The burst dedupe keys on the query's value: token iterables
        of any type, order or multiplicity name one execution."""
        engine = CountingEngine()
        region = Rect(0, 0, 4, 3)
        burst = [
            Query(region, frozenset({"a", "b", "c"}), 0.1, 0.1),
            Query(region, ["c", "a", "b"], 0.1, 0.1),
            Query(Rect(0.0, -0.0, 4.0, 3.0), ("b", "c", "a", "a"), 0.1, 0.1),
        ]
        with QueryService(engine, workers=2) as service:
            results = service.query_batch(burst)
            assert engine.calls == 1
            assert [r.answers for r in results] == [[1], [1], [1]]
            assert service.query(burst[2]).answers == [1]  # cached under the value too
            assert engine.calls == 1

    def test_batch_mixes_cache_hits_and_misses(self):
        queries = workload(4)
        with QueryService(make_engine(), workers=2) as service:
            service.query(queries[0])
            service.query(queries[1])
            results = service.query_batch(queries)
            assert [r.answers for r in results] == [
                service.query(q).answers for q in queries
            ]

    def test_empty_batch(self):
        with QueryService(make_engine(), workers=2) as service:
            assert service.query_batch([]) == []


class TestResultPrivacy:
    def test_cache_hit_returns_private_copies(self):
        with QueryService(make_engine(), workers=2) as service:
            query = workload(1)[0]
            miss = service.query(query)
            hit_a = service.query(query)
            hit_b = service.query(query)
            assert hit_a is not hit_b and hit_a.stats is not hit_b.stats
            miss.answers.append(10**6)
            hit_a.stats.results = -5
            assert service.query(query).answers == hit_b.answers


def admission_of(service: QueryService) -> dict:
    return service.metrics()["admission"]


class TestAdmission:
    def test_overflow_rejected_loudly(self):
        engine = GatedEngine()
        service = QueryService(engine, enable_cache=False, workers=1, max_queue=0)
        try:
            holder = Caller(service.query, workload(1)[0])
            wait_until(lambda: engine.calls == 1, message="the holder to enter the engine")
            with pytest.raises(AdmissionRejected, match="saturated"):
                service.query(workload(2)[1])
            engine.release.set()
            assert holder.finish().answers == []
            assert admission_of(service)["rejected"] == 1
        finally:
            engine.release.set()
            service.close()

    def test_deadline_expires_queued_request(self):
        engine = GatedEngine()
        service = QueryService(engine, enable_cache=False, workers=1, max_queue=4)
        try:
            holder = Caller(service.query, workload(1)[0])
            wait_until(lambda: engine.calls == 1, message="the holder to enter the engine")
            # Queued behind the gated request with a deadline it will miss.
            with pytest.raises(DeadlineExceeded, match="0.010s deadline"):
                service.query(workload(2)[1], deadline=0.01)
            engine.release.set()
            holder.finish()
            assert engine.calls == 1  # the expired request never executed
            assert admission_of(service)["deadline_expired"] == 1
        finally:
            engine.release.set()
            service.close()

    def test_deadline_raises_at_the_deadline_and_frees_its_place(self):
        """The waiting thread notices its own deadline — while the gate
        is still closed — and stops occupying the line: the next arrival
        waits instead of being rejected by a dead request."""
        engine = GatedEngine()
        service = QueryService(engine, enable_cache=False, workers=1, max_queue=1)
        queries = workload(3)
        try:
            holder = Caller(service.query, queries[0])
            wait_until(lambda: engine.calls == 1, message="the holder to enter the engine")
            started = time.monotonic()
            with pytest.raises(DeadlineExceeded):
                service.query(queries[1], deadline=0.05)
            waited = time.monotonic() - started
            assert 0.04 <= waited < 0.5
            assert not engine.release.is_set()
            assert admission_of(service)["in_flight"] == 1
            third = Caller(service.query, queries[2])
            wait_until(lambda: admission_of(service)["in_flight"] == 2,
                       message="the third request to wait in line")
            assert third.is_alive() and engine.calls == 1
            engine.release.set()
            assert holder.finish().answers == []
            assert third.finish().answers == []
            admission = admission_of(service)
            assert (admission["submitted"], admission["rejected"]) == (3, 0)
            assert admission["deadline_expired"] == 1
            assert admission["in_flight"] == 0
            # Neither refusal nor expiry is an engine error or a latency sample.
            assert service.metrics()["requests"]["errors"] == 0
            assert service.metrics()["latency_ms"]["count"] == 2
        finally:
            engine.release.set()
            service.close()

    def test_workers_execute_queue_waits_overflow_is_rejected(self):
        engine = GatedEngine()
        service = QueryService(engine, enable_cache=False, workers=2, max_queue=2)
        try:
            callers = [Caller(service.query, query) for query in workload(6)]
            wait_until(
                lambda: engine.calls == 2
                and admission_of(service)["in_flight"] == 4
                and admission_of(service)["rejected"] == 2,
                message="two executing, two waiting, two rejected",
            )
            time.sleep(0.05)
            assert engine.calls == 2  # the two in line stay out of the engine
            engine.release.set()
            served = rejected = 0
            for caller in callers:
                try:
                    assert caller.finish().answers == []
                    served += 1
                except AdmissionRejected:
                    rejected += 1
            assert (served, rejected) == (4, 2)
            assert engine.calls == 4
            admission = admission_of(service)
            assert (admission["submitted"], admission["rejected"]) == (4, 2)
            assert admission["in_flight"] == 0
        finally:
            engine.release.set()
            service.close()

    def test_stress_bounds_concurrency_and_counts_every_request(self):
        """More client threads than slots, on a short switch interval: a
        lost counter update or a leaked slot would break the totals."""
        controller = AdmissionController(workers=2, max_queue=2)
        lock = threading.Lock()
        seen = {"inside": 0, "peak": 0, "ran": 0}

        def work() -> None:
            with lock:
                seen["inside"] += 1
                seen["ran"] += 1
                seen["peak"] = max(seen["peak"], seen["inside"])
            time.sleep(0)  # let another thread in while this one holds its slot
            with lock:
                seen["inside"] -= 1

        def client() -> None:
            for _ in range(300):
                try:
                    controller.run(work)
                except AdmissionRejected:
                    pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for caller in [Caller(client) for _ in range(8)]:
                caller.finish(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        counters = controller.counters()
        assert 1 <= seen["peak"] <= 2
        assert counters["submitted"] + counters["rejected"] == 8 * 300
        assert counters["submitted"] == seen["ran"]
        assert counters["in_flight"] == 0 and seen["inside"] == 0
        controller.shutdown()  # nothing in flight: returns at once

    def test_close_drains_executing_and_waiting_requests(self):
        engine = GatedEngine()
        service = QueryService(engine, enable_cache=False, workers=1, max_queue=1)
        queries = workload(3)

        def refuses_as_shut_down() -> bool:
            try:
                service.query(queries[2])
            except AdmissionRejected:
                return False  # still open (and full)
            except ServiceError as exc:
                return "shut down" in str(exc)
            return False

        try:
            running = Caller(service.query, queries[0])
            wait_until(lambda: engine.calls == 1, message="the first request to execute")
            waiting = Caller(service.query, queries[1])
            wait_until(lambda: admission_of(service)["in_flight"] == 2,
                       message="the second request to wait in line")
            closer = Caller(service.close)
            wait_until(refuses_as_shut_down, message="close() to refuse new requests")
            time.sleep(0.05)
            assert closer.is_alive()  # blocked on the two admitted requests
            engine.release.set()
            assert running.finish().answers == []
            assert waiting.finish().answers == []  # admitted before close: still served
            closer.finish()
            assert engine.calls == 2 and admission_of(service)["in_flight"] == 0
            with pytest.raises(ServiceError, match="shut down"):
                service.query(queries[2])
        finally:
            engine.release.set()

    def test_cache_hits_bypass_admission_slots(self):
        engine = make_engine()
        with QueryService(engine, workers=1, max_queue=0) as service:
            query = workload(1)[0]
            service.query(query)
            submitted_before = service.metrics()["admission"]["submitted"]
            for _ in range(5):
                assert service.query(query).answers is not None
            assert service.metrics()["admission"]["submitted"] == submitted_before

    def test_admission_controller_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(workers=0)
        with pytest.raises(ValueError):
            AdmissionController(max_queue=-1)
        with pytest.raises(ValueError):
            AdmissionController(default_deadline=0.0)

    def test_submit_after_close_raises(self):
        service = QueryService(make_engine(), workers=1)
        service.close()
        with pytest.raises(RuntimeError):
            service.query(workload(1)[0])


class TestOneThreadPerRequest:
    def test_engine_runs_on_the_calling_thread_and_no_thread_is_created(self):
        engine = ThreadReportingEngine()
        before = set(threading.enumerate())
        with QueryService(engine, enable_cache=False) as service:
            service.query(workload(1)[0])
            service.search(Rect(0, 0, 4, 3), {"a"}, 0.1, 0.1)
            service.query_batch(workload(3))
            assert set(engine.threads) == {threading.current_thread()}
            for _ in range(100):
                service.query(workload(1)[0])
            assert set(threading.enumerate()) <= before
            other = Caller(service.query, workload(1)[0])
            other.finish()
            assert engine.threads[-1] is other
        assert len(engine.threads) == 106
        assert set(engine.threads) == {threading.current_thread(), other}
        assert not any(
            thread.name.startswith("seal-service") for thread in threading.enumerate()
        )


class TestErrors:
    def test_engine_errors_counted_and_propagated(self):
        class Exploding:
            def search_query(self, query):
                raise ZeroDivisionError("engine blew up")

        with QueryService(
            Exploding(), enable_cache=False, workers=1, max_queue=0
        ) as service:
            # The caller sees the engine's own exception, not a wrapper,
            # and the failed request gives its only slot back each time.
            with pytest.raises(ZeroDivisionError, match="^engine blew up$"):
                service.query(workload(1)[0])
            assert service.metrics()["requests"]["errors"] == 1
            with pytest.raises(ZeroDivisionError, match="^engine blew up$"):
                service.query_batch(workload(2))
            metrics = service.metrics()
            assert metrics["requests"]["errors"] == 2
            assert metrics["admission"]["in_flight"] == 0
            assert metrics["admission"]["submitted"] == 2
            assert metrics["latency_ms"]["count"] == 0


class TestMetrics:
    def test_metrics_document_schema_and_json(self):
        with QueryService(make_engine(), workers=2) as service:
            for query in workload():
                service.query(query)
            service.query_batch(workload())
            metrics = service.metrics()
        assert set(metrics) == {
            "epoch", "engine", "requests", "cache", "admission", "latency_ms",
            "planner",
        }
        assert metrics["planner"] is None  # no planned engine in play
        assert metrics["epoch"] == 0
        assert metrics["engine"] == "SegmentedSealSearch"  # SealSearch's class
        assert metrics["requests"]["total"] == 12
        assert metrics["requests"]["batches"] == 1
        assert metrics["requests"]["batch_members"] == 6
        assert metrics["cache"]["hits"] == 6  # the whole batch hit
        latency = metrics["latency_ms"]
        assert latency["count"] == 12
        assert latency["p50_ms"] <= latency["p90_ms"] <= latency["p99_ms"]
        assert latency["p99_ms"] <= latency["max_ms"] or latency["max_ms"] == 0.0
        # The whole document must round-trip as JSON (the CLI writes it).
        parsed = json.loads(service.metrics_json())
        assert parsed["admission"]["workers"] == 2

    def test_epoch_visible_in_metrics_after_updates(self):
        engine = SegmentedSealSearch(
            [(Rect(0, 0, 2, 2), {"a"})], method="token", buffer_capacity=4
        )
        with QueryService(engine, workers=2) as service:
            query = Query(Rect(0, 0, 10, 10), frozenset({"a"}), 0.01, 0.0)
            before = service.query(query).answers
            oid = service.insert(Rect(1, 1, 3, 3), {"a"})
            after = service.query(query).answers
            assert service.metrics()["epoch"] == 1
            assert after == sorted(before + [oid])
            service.delete(oid)
            assert service.query(query).answers == before
            assert service.metrics()["epoch"] == 2
            assert service.cache.counters()["invalidated"] > 0


class TestLatencyHistogram:
    def test_percentiles_ordered_and_bounded(self):
        histogram = LatencyHistogram()
        for ms in (0.02, 0.2, 0.2, 2.0, 2.0, 2.0, 20.0, 200.0):
            histogram.observe(ms / 1000.0)
        assert histogram.count == 8
        p50, p99 = histogram.percentile(50.0), histogram.percentile(99.0)
        assert 0.0 < p50 <= p99 <= 200.0
        with pytest.raises(ValueError):
            histogram.percentile(0.0)

    def test_a_latency_on_a_bound_counts_in_that_bounds_bucket(self):
        """A bucket is ``<= le_ms``: a latency exactly on a bound counts
        there, and the next float up in the bucket after it."""
        import math

        from repro.service.metrics import BUCKET_BOUNDS_MS

        for i, bound in enumerate(BUCKET_BOUNDS_MS):
            seconds = bound / 1000.0
            assert seconds * 1000.0 == bound  # observe() sees the bound itself
            above = math.nextafter(seconds, math.inf)
            assert above * 1000.0 > bound
            histogram = LatencyHistogram()
            histogram.observe(seconds)
            histogram.observe(above)
            counts = [bucket["count"] for bucket in histogram.as_dict()["buckets"]]
            assert counts[i] == 1 and counts[i + 1] == 1 and sum(counts) == 2

    def test_overflow_bucket_reports_observed_max(self):
        histogram = LatencyHistogram()
        histogram.observe(10.0)  # 10 000 ms: beyond the last bound
        assert histogram.percentile(99.0) == pytest.approx(10_000.0)
        snapshot = histogram.as_dict()
        assert snapshot["buckets"][-1] == {"le_ms": "inf", "count": 1}

    def test_empty_histogram(self):
        histogram = LatencyHistogram()
        assert histogram.percentile(50.0) == 0.0
        assert histogram.as_dict()["count"] == 0

    def test_empty_histogram_emits_no_nan_anywhere(self):
        """The --metrics-out audit: an idle service's histogram snapshot
        must be all finite zeros (a NaN would poison every scraper)."""
        import math

        snapshot = LatencyHistogram().as_dict()
        for key in ("mean_ms", "max_ms", "p50_ms", "p90_ms", "p99_ms"):
            assert snapshot[key] == 0.0
            assert math.isfinite(snapshot[key])
        assert all(bucket["count"] == 0 for bucket in snapshot["buckets"])
        assert "NaN" not in json.dumps(snapshot)  # json.dumps emits NaN unquoted

    def test_all_zero_observations_stay_finite(self):
        """Zero-latency observations land in the first bucket with
        max_ms 0.0; interpolation must not divide into NaN/negatives."""
        import math

        histogram = LatencyHistogram()
        for _ in range(4):
            histogram.observe(0.0)
        snapshot = histogram.as_dict()
        for key in ("mean_ms", "max_ms", "p50_ms", "p90_ms", "p99_ms"):
            assert math.isfinite(snapshot[key])
            assert snapshot[key] >= 0.0

    def test_idle_service_metrics_json_has_no_nan(self):
        """End to end: serve --metrics-out JSON of a service that never
        saw a request parses back with finite numbers only."""
        import math

        with QueryService(make_engine()) as service:
            document = json.loads(
                service.metrics_json(),
                parse_constant=lambda name: pytest.fail(f"non-finite {name} in metrics"),
            )
        latency = document["latency_ms"]
        assert latency["count"] == 0
        assert all(
            math.isfinite(latency[key])
            for key in ("mean_ms", "max_ms", "p50_ms", "p90_ms", "p99_ms")
        )
        assert document["cache"]["hit_rate"] == 0.0  # 0/0 lookups pins to 0.0
