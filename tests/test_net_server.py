"""NetworkServer/NetworkClient: differential against the in-process oracle.

The single-process threaded server is the answer-identity oracle for the
multi-process pool, so it first has to be pinned against the thing *it*
wraps: every networked answer must be bit-identical to calling the same
:class:`QueryService` directly.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro import Query, Rect, SegmentedSealSearch, SpatioTextualObject, build_method
from repro.core.errors import (
    AdmissionRejected,
    DeadlineExceeded,
    ProtocolError,
    ServiceError,
)
from repro.service import NetworkClient, NetworkServer, QueryService, protocol
from service_testlib import (
    Caller,
    GatedEngine,
    ThreadReportingEngine,
    decode_threads,
    wait_until,
)


@pytest.fixture()
def service(twitter_small):
    pairs = [(obj.region, obj.tokens) for obj in twitter_small]
    engine = SegmentedSealSearch(pairs, "token", buffer_capacity=64)
    with QueryService(engine, enable_cache=False) as svc:
        yield svc


@pytest.fixture()
def served(service):
    with NetworkServer(service) as server:
        host, port = server.address
        with NetworkClient(host, port, timeout=10.0) as client:
            yield client, service


class TestDifferential:
    def test_networked_answers_match_direct_service(self, served, twitter_small_queries):
        client, service = served
        for query in twitter_small_queries:
            networked = client.query(query)
            direct = service.query(query)
            assert networked.answers == direct.answers
            # The instrumentation travels too, not just the oids.
            assert networked.stats.results == direct.stats.results

    def test_batch_matches_sequential(self, served, twitter_small_queries):
        client, service = served
        batched = client.query_batch(list(twitter_small_queries))
        assert [r.answers for r in batched] == [
            service.query(q).answers for q in twitter_small_queries
        ]

    def test_search_convenience_matches_query(self, served, twitter_small_queries):
        client, _ = served
        q = twitter_small_queries[0]
        assert (
            client.search(q.region, q.tokens, q.tau_r, q.tau_t).answers
            == client.query(q).answers
        )


class TestIdentityAndErrors:
    def test_responses_carry_serving_identity(self, served):
        client, service = served
        payload = client.ping()
        assert payload["epoch"] == service.epoch
        assert payload["generation"] is None  # single-process server
        assert payload["pid"] == os.getpid()
        assert client.last_meta["pid"] == os.getpid()

    def test_epoch_bumps_are_visible_over_the_wire(self, served, twitter_small_queries):
        client, service = served
        before = client.ping()["epoch"]
        q = twitter_small_queries[0]
        service.insert(q.region, {"zzz-new-token"})
        after = client.ping()["epoch"]
        assert after == before + 1

    def test_metrics_document_crosses_the_wire(self, served, twitter_small_queries):
        client, _ = served
        client.query(twitter_small_queries[0])
        metrics = client.metrics()
        assert metrics["requests"]["total"] >= 1

    def test_server_side_validation_raises_locally(self, served):
        client, _ = served
        # Speak the raw protocol around the typed client surface: a
        # malformed tau must come back as the same exception a local
        # call would raise, with the connection still usable.
        from repro.service.protocol import query_to_wire  # noqa: F401  (doc aid)

        with pytest.raises(ProtocolError, match="tau_r"):
            client.call({"op": "query", "region": [0, 0, 1, 1],
                         "tokens": ["a"], "tau_r": "high", "tau_t": 0.1})
        assert client.ping()["ok"] is True

    def test_batch_item_errors_name_their_position(self, served, twitter_small_queries):
        """A malformed ``batch`` entry comes back as a typed error that
        names the entry — a non-object is not validated as ``{}`` (which
        blamed a 'region' the client never sent) — and the connection
        keeps serving."""
        from repro.service.protocol import query_to_wire

        client, service = served
        query = twitter_small_queries[0]
        good = query_to_wire(query)
        with pytest.raises(ProtocolError, match=r"^'queries'\[1\] must be a query object$"):
            client.call({"op": "batch", "queries": [good, ["region", "tokens"]]})
        assert client.ping()["ok"] is True
        with pytest.raises(ProtocolError, match=r"^'queries'\[2\]: 'tau_t' must be a number"):
            client.call({"op": "batch", "queries": [good, good, dict(good, tau_t="high")]})
        assert [r.answers for r in client.query_batch([query, query])] == (
            [service.query(query).answers] * 2
        )

    def test_unknown_op_raises_protocol_error(self, served):
        client, _ = served
        with pytest.raises(ProtocolError, match="unknown op"):
            client.call({"op": "teleport"})

    def test_admission_shutdown_maps_to_service_error(self, twitter_small):
        pairs = [(obj.region, obj.tokens) for obj in twitter_small[:50]]
        engine = SegmentedSealSearch(pairs, "token", buffer_capacity=64)
        service = QueryService(engine, enable_cache=False)
        with NetworkServer(service) as server:
            host, port = server.address
            with NetworkClient(host, port, timeout=10.0) as client:
                assert client.ping()["ok"] is True
                service.close()  # the service dies under the server
                with pytest.raises((ServiceError, ProtocolError)):
                    client.call({"op": "query", "region": [0, 0, 1, 1],
                                 "tokens": ["a"], "tau_r": 0.1, "tau_t": 0.1})


class TestCachedWirePath:
    """A cached answer goes out as stored bytes; a repeat skips decode."""

    def test_identical_request_across_an_epoch_bump(self, twitter_small, twitter_small_queries):
        pairs = [(obj.region, obj.tokens) for obj in twitter_small]
        engine = SegmentedSealSearch(pairs, "token", buffer_capacity=64)
        query = twitter_small_queries[0]
        with QueryService(engine) as service, NetworkServer(service) as server, \
                NetworkClient(*server.address, timeout=10.0) as client:
            # The client encodes a query deterministically, so each of
            # these requests is byte-identical to the first.
            before = client.query(query).answers
            assert client.query(query).answers == before
            assert service.cache.counters()["encoded"] == 1
            oid = service.insert(query.region, query.tokens)
            after = client.query(query)
            assert client.last_meta["epoch"] == service.epoch
            assert oid in after.answers and oid not in before
            live = [SpatioTextualObject(i, r, t) for i, (r, t) in enumerate(pairs)]
            live.append(SpatioTextualObject(oid, query.region, query.tokens))
            naive = build_method(live, "naive", engine.weighter)
            assert after.answers == naive.search(query).answers
            assert client.query(query).answers == after.answers
            assert service.cache.counters()["hits"] == 2

    def test_oversized_answer_fails_the_request_not_the_connection(self, monkeypatch):
        objects = [(Rect(0, 0, 10, 10), {"a"})] * 200
        query = Query(Rect(0, 0, 10, 10), frozenset({"a"}), 0.5, 0.5)
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 600)
        with QueryService(SegmentedSealSearch(objects, "token")) as service, \
                NetworkServer(service) as server, \
                NetworkClient(*server.address, timeout=10.0) as client:
            for _ in range(2):  # the miss, then the cached bytes
                with pytest.raises(ProtocolError, match="exceeds the 600-byte limit"):
                    client.query(query)
                assert client.ping()["ok"] is True
            with pytest.raises(ProtocolError, match="exceeds"):
                client.query_batch([query])
            assert client.ping()["ok"] is True
            assert len(service.query(query).answers) == 200


class TestAdmissionOverTheWire:
    """A request runs on its connection's thread, so saturation and
    deadlines are decided there — and answered as typed error frames on
    a connection that stays usable."""

    QUERY = Query(Rect(0, 0, 1, 1), frozenset({"a"}), 0.1, 0.1)

    @pytest.mark.parametrize(
        "config, refusal",
        [
            ({"workers": 1, "max_queue": 0}, AdmissionRejected),
            ({"workers": 1, "max_queue": 1, "default_deadline": 0.05}, DeadlineExceeded),
        ],
    )
    def test_second_client_is_refused_typed_and_retries_after_release(self, config, refusal):
        engine = GatedEngine()
        with QueryService(engine, enable_cache=False, **config) as service, \
                NetworkServer(service) as server:
            host, port = server.address
            try:
                with NetworkClient(host, port, timeout=10.0) as first, \
                        NetworkClient(host, port, timeout=10.0) as second:
                    holder = Caller(first.query, self.QUERY)
                    wait_until(lambda: engine.calls == 1,
                               message="the first client's query to enter the engine")
                    with pytest.raises(refusal) as raised:
                        second.query(self.QUERY)
                    assert type(raised.value) is refusal
                    assert second.ping()["ok"] is True  # same connection, still in step
                    engine.release.set()
                    assert holder.finish().answers == []
                    assert second.query(self.QUERY).answers == []
                    admission = second.metrics()["admission"]
                    assert admission["submitted"] == (3 if refusal is DeadlineExceeded else 2)
                    assert admission["rejected"] + admission["deadline_expired"] == 1
                    assert admission["in_flight"] == 0
            finally:
                engine.release.set()

    def test_engine_runs_on_the_connection_thread(self):
        engine = ThreadReportingEngine()
        with QueryService(engine, enable_cache=False) as service, \
                NetworkServer(service) as server:
            with NetworkClient(*server.address, timeout=10.0) as client:
                caller, live = decode_threads(client.query(self.QUERY))
                client.query_batch([self.QUERY])
        assert caller == "seal-net-conn"
        assert [thread.name for thread in engine.threads] == ["seal-net-conn"] * 2
        assert len(set(engine.threads)) == 1  # one connection, one thread
        assert not any(name.startswith("seal-service") for name in live)


class TestLifecycle:
    def test_server_close_is_a_drain(self, service, twitter_small_queries):
        server = NetworkServer(service)
        server.start()
        host, port = server.address
        client = NetworkClient(host, port, timeout=10.0)
        try:
            assert client.query(twitter_small_queries[0]).answers is not None
            server.close()
            # The drained server's socket answers the *next* request with
            # EOF — surfaced loudly, never as a silent empty answer.
            with pytest.raises(ProtocolError):
                client.query(twitter_small_queries[0])
        finally:
            client.close()
        # The service outlives its server (the CLI owns both lifetimes).
        assert service.query(twitter_small_queries[0]).answers is not None

    def test_concurrent_clients_each_get_correct_answers(
        self, served, twitter_small_queries
    ):
        client, service = served
        # All threads talk to the server the fixture started; recover its
        # address from the fixture client's socket.
        host, port = client._sock.getpeername()[:2]
        expected = [service.query(q).answers for q in twitter_small_queries]
        errors: list = []

        def drive() -> None:
            try:
                with NetworkClient(host, port, timeout=10.0) as mine:
                    for i, query in enumerate(twitter_small_queries):
                        assert mine.query(query).answers == expected[i]
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=drive) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not errors, errors[:1]
