"""NetworkClient: its memos of request frames and decoded answers, and
its transport failures.

A repeated query is bytes in, bytes out on the client too: the frame of
a :class:`Query` object it has sent goes out again as stored bytes, and
an ok-response body it has seen repeat comes back as a private copy of
its validated decode.  These tests pin what that may never change — the
answers, the stats, the serving identity, the bytes on the wire — and
what a connection that failed mid-conversation does next: it closes,
so a late answer can never be read as the next request's.
"""

from __future__ import annotations

import os
import socket
import string
import threading
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Query, Rect, SegmentedSealSearch, SpatioTextualObject, build_method
from repro.core.errors import AdmissionRejected, ProtocolError
from repro.core.stats import SearchResult, SearchStats
from repro.service import NetworkClient, NetworkServer, QueryService, server
from repro.service.protocol import (
    HEADER_BYTES,
    decode_payload,
    encode_frame,
    query_to_wire,
    result_from_wire,
)
from strategies import nonempty_token_sets, queries, rects

PAIRS = [
    (Rect(i % 7 * 10.0, i // 7 * 10.0, i % 7 * 10.0 + 15.0, i // 7 * 10.0 + 15.0),
     {f"t{i % 5}", f"t{i % 3 + 5}"})
    for i in range(21)
]
QUERY = Query(Rect(0.0, 0.0, 30.0, 30.0), frozenset({"t0", "t5"}), 0.05, 0.05)


def reference_frame(query: Query) -> bytes:
    """A query's request frame from its dict form (the codec's reference)."""
    return encode_frame({"op": "query", **query_to_wire(query)})


def naive_answers(engine, live, query: Query):
    """The from-scratch scan's answers over ``live`` (oid -> pair)."""
    oids = sorted(live)
    scan = build_method(
        [SpatioTextualObject(i, *live[oid]) for i, oid in enumerate(oids)],
        "naive", engine.weighter,
    )
    return [oids[i] for i in scan.search(query).answers]


class RawClient:
    """A client that encodes every request and decodes every reply
    from scratch: the memoising client's reference."""

    def __init__(self, address) -> None:
        self.sock = socket.create_connection(address, timeout=10.0)

    def _exact(self, count: int) -> bytes:
        data = b""
        while len(data) < count:
            chunk = self.sock.recv(count - len(data))
            assert chunk, "server closed the connection"
            data += chunk
        return data

    def query(self, query: Query) -> SearchResult:
        self.sock.sendall(reference_frame(query))
        length = int.from_bytes(self._exact(HEADER_BYTES), "big")
        payload = decode_payload(self._exact(length))
        assert payload["ok"], payload
        return result_from_wire(payload)

    def close(self) -> None:
        self.sock.close()


class ScriptedEngine:
    """Answers each query with what ``answer(call number, query)`` says,
    after ``delay(call number)`` seconds; counts calls."""

    def __init__(self, answer, delay=lambda call: 0.0):
        self._answer = answer
        self._delay = delay
        self.calls = 0

    def search_query(self, query: Query) -> SearchResult:
        call = self.calls
        self.calls += 1
        time.sleep(self._delay(call))
        return SearchResult(self._answer(call, query), SearchStats(results=1))


@pytest.fixture()
def decodes(monkeypatch):
    """Every body the client ran through ``result_from_wire``."""
    calls = []
    real = server.result_from_wire
    monkeypatch.setattr(server, "result_from_wire",
                        lambda fields: calls.append(fields) or real(fields))
    return calls


@pytest.fixture()
def stack():
    """A cached service over a segmented ``token`` engine, its server,
    and a client: ``(client, service, live)`` with ``live`` the model."""
    engine = SegmentedSealSearch(PAIRS, "token", buffer_capacity=4)
    with QueryService(engine) as service, NetworkServer(service) as net, \
            NetworkClient(*net.address, timeout=10.0) as client:
        yield client, service, dict(enumerate(PAIRS))


def _serve(engine, **config):
    """``(service, server)`` context managers over a stub engine."""
    service = QueryService(engine, enable_cache=False, **config)
    return service, NetworkServer(service)


class TestMemo:
    def test_a_repeat_is_decoded_once_and_sent_as_stored_bytes(self, stack, decodes, monkeypatch):
        client, service, live = stack
        frames = []
        real_frame = server.query_frame
        monkeypatch.setattr(server, "query_frame",
                            lambda query: frames.append(query) or real_frame(query))
        first = client.query(QUERY)
        for _ in range(5):
            assert client.query(QUERY).answers == first.answers
        # The first sighting keeps only the bytes; the first repeat is
        # decoded once and kept; no later repeat decodes or encodes.
        assert len(decodes) == 2 and len(frames) == 1
        assert client._frames[id(QUERY)] == reference_frame(QUERY)
        assert first.answers == naive_answers(service.engine, live, QUERY)
        assert client.last_meta == {"epoch": service.epoch, "generation": None,
                                    "pid": os.getpid()}

    def test_an_epoch_bump_changes_the_envelope_and_forces_a_decode(self, stack, decodes):
        client, service, live = stack
        before = [client.query(QUERY).answers for _ in range(3)]
        assert len(decodes) == 2
        oid = service.insert(QUERY.region, QUERY.tokens)
        live[oid] = (QUERY.region, QUERY.tokens)
        after = client.query(QUERY)
        assert len(decodes) == 3
        assert client.last_meta["epoch"] == service.epoch == 1
        assert oid in after.answers and oid not in before[0]
        assert after.answers == naive_answers(service.engine, live, QUERY)
        assert [client.query(QUERY).answers for _ in range(3)] == [after.answers] * 3
        assert len(decodes) == 4

    def test_every_reply_is_private(self, stack):
        client, _, _ = stack
        expected = client.query(QUERY)
        meta = dict(client.last_meta)
        for _ in range(4):
            result = client.query(QUERY)
            assert result.answers == expected.answers
            assert result.stats == expected.stats and client.last_meta == meta
            result.answers.append(-1)
            result.stats.candidates = -1
            result.stats.per_source.append(SearchStats())
            client.last_meta["epoch"] = -1

    def test_equal_queries_send_their_own_bytes(self, monkeypatch):
        """``1`` and ``1.0`` are equal but spelled apart: a repeat is the
        same Query object, so neither borrows the other's frame."""
        bodies = []
        real = server.recv_body
        monkeypatch.setattr(server, "recv_body",
                            lambda conn, stop: _record(bodies, real(conn, stop)))
        spelled = [Query(Rect(0, 0, 30, 30), QUERY.tokens, 0.05, 0.05),
                   Query(Rect(0.0, 0.0, 30.0, 30.0), QUERY.tokens, 0.05, 0.05),
                   Query(Rect(-0.0, 0.0, 30.0, 30.0), QUERY.tokens, 0.05, 0.05)]
        assert spelled[0] == spelled[1] == spelled[2]
        engine = SegmentedSealSearch(PAIRS, "token", buffer_capacity=4)
        with QueryService(engine) as service, NetworkServer(service) as net, \
                NetworkClient(*net.address, timeout=10.0) as client:
            for query in spelled * 2:
                client.query(query)
        assert bodies == [reference_frame(q)[HEADER_BYTES:] for q in spelled * 2]
        assert len(set(bodies)) == 3

    def test_an_error_frame_returned_twice_raises_twice(self, decodes):
        def refuse(call, query):
            raise AdmissionRejected(f"saturated ({call})")

        service, net = _serve(ScriptedEngine(refuse))
        with service, net, NetworkClient(*net.address, timeout=10.0) as client:
            for call in range(3):
                with pytest.raises(AdmissionRejected, match=rf"saturated \({call}\)"):
                    client.query(QUERY)
                assert client.ping()["ok"] is True
        assert decodes == []

    def test_both_memos_start_over_at_their_byte_budget(self, stack, decodes, monkeypatch):
        client, _, _ = stack
        asked = [QUERY.with_thresholds(tau_t=tau) for tau in (0.1, 0.2, 0.3)]
        client.query(asked[0])
        (body,) = client._answers
        frame = client._frames[id(asked[0])]
        address = client._sock.getpeername()[:2]
        for kept in (body, frame):
            # Room for two of them, not three: a, b, c, a, b, c never repeats.
            monkeypatch.setattr(server, "QUERY_MEMO_BYTES", 2 * len(kept) + 1)
            decodes.clear()
            with NetworkClient(*address, timeout=10.0) as fresh:
                for query in asked + asked:
                    fresh.query(query)
                    assert len(fresh._answers if kept is body else fresh._frames) <= 2
            if kept is body:
                assert len(decodes) == 6

    def test_a_body_over_the_budget_is_never_kept(self, stack, decodes, monkeypatch):
        client, _, _ = stack
        monkeypatch.setattr(server, "QUERY_MEMO_BYTES", 16)
        for _ in range(3):
            client.query(QUERY)
        assert len(decodes) == 3 and not client._frames and not client._answers


def _record(bodies, body):
    if body is not None:
        bodies.append(body)
    return body


class TestMemoBudget:
    """What the memos keep is bounded by the bytes they keep, whether
    the bodies carry many answers or the queries many tokens."""

    def test_many_answer_bodies_keep_the_memo_to_a_few_mib(self):
        # ~14 KiB bodies of 2000 large oids: a kept decode is ~6x its
        # body, so 150 distinct bodies, each repeated, would pin ~13 MB.
        def many(call, query):
            base = 10**12 + int(query.tau_t * 10**6) * 4000
            return list(range(base, base + 2000))

        service, net = _serve(ScriptedEngine(many))
        with service, net, NetworkClient(*net.address, timeout=10.0) as client:
            tracemalloc.start()
            try:
                for k in range(150):
                    query = QUERY.with_thresholds(tau_t=(k + 1) / 1024)
                    for _ in range(2):
                        assert len(client.query(query)) == 2000
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_token_heavy_queries_keep_the_memo_to_a_few_mib(self):
        # ~4 KiB frames of 780 two-character tokens: the frame memo keeps
        # each Query alive, ~10x its frame; so does the server's memo.
        alphabet = string.ascii_letters + string.digits
        tokens = frozenset(alphabet[i % 62] + alphabet[i // 62] for i in range(780))
        service, net = _serve(ScriptedEngine(lambda call, query: [1]))
        with service, net, NetworkClient(*net.address, timeout=10.0) as client:
            tracemalloc.start()
            try:
                for k in range(300):
                    query = Query(QUERY.region, frozenset(set(tokens)), 0.05, (k + 1) / 512)
                    for _ in range(2):
                        assert client.query(query).answers == [1]
                    del query
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 6 * 2**20


class TestTransportFailure:
    def test_a_timed_out_client_never_reads_the_late_answer(self):
        engine = ScriptedEngine(lambda call, query: [call],
                                delay=lambda call: 0.6 if call == 0 else 0.0)
        service, net = _serve(engine)
        with service, net:
            with NetworkClient(*net.address, timeout=0.3) as client:
                with pytest.raises(ProtocolError, match=r"timed out waiting for the server \(0/4 bytes\)"):
                    client.query(QUERY)
                time.sleep(0.5)  # the late answer is in flight by now
                for _ in range(2):
                    with pytest.raises(ProtocolError, match="reconnect"):
                        client.query(QUERY)
                with pytest.raises(ProtocolError, match="reconnect"):
                    client.ping()
                assert not client._answers and not client._frames
            with NetworkClient(*net.address, timeout=10.0) as fresh:
                assert fresh.query(QUERY).answers == [1]

    def test_eof_mid_conversation_closes_the_client(self, stack):
        client, service, _ = stack
        client.query(QUERY)
        with NetworkServer(service) as other:
            drained = NetworkClient(*other.address, timeout=10.0)
            drained.query(QUERY)
        try:
            with pytest.raises(ProtocolError, match="closed by the server|connection lost"):
                drained.query(QUERY)
            with pytest.raises(ProtocolError, match="reconnect"):
                drained.query(QUERY)
        finally:
            drained.close()
        assert client.query(QUERY).answers  # the other connection is untouched

    @pytest.mark.parametrize("reply, complaint", [
        ((12).to_bytes(HEADER_BYTES, "big") + b"not json {[}", "undecodable frame"),
        ((0).to_bytes(HEADER_BYTES, "big"), "invalid frame length 0"),
        ((2).to_bytes(HEADER_BYTES, "big") + b"{}{}", "past its response"),
    ])
    def test_a_garbled_reply_closes_the_client(self, reply, complaint):
        listener = socket.create_server(("127.0.0.1", 0))
        served = []

        def answer() -> None:
            conn, _ = listener.accept()
            with conn:
                while conn.recv(65536):
                    served.append(1)
                    conn.sendall(reply)

        thread = threading.Thread(target=answer, daemon=True)
        thread.start()
        with listener, NetworkClient(*listener.getsockname()[:2], timeout=5.0) as client:
            with pytest.raises(ProtocolError, match=complaint):
                client.query(QUERY)
            with pytest.raises(ProtocolError, match="reconnect"):
                client.query(QUERY)
        thread.join(timeout=5.0)
        assert served == [1]

    def test_a_closed_client_says_so(self, stack):
        client, _, _ = stack
        client.close()
        with pytest.raises(ProtocolError, match="client was closed.*reconnect"):
            client.query(QUERY)


class TestSlowReader:
    """The server's socket timeout is its stop-event poll (0.2 s), not a
    deadline for a frame: a ~5.7 MB answer waits for a reader that
    starts late, and only a reader that takes nothing for
    ``_DRAIN_GRACE`` seconds loses it."""

    COUNT = 300_000

    def _read_late(self, pause: float) -> bytes:
        """Ask for the big answer, wait ``pause`` seconds, then read
        until the frame is whole or the server hangs up."""
        base = 10**17
        answer = list(range(base, base + self.COUNT))
        service, net = _serve(ScriptedEngine(lambda call, query: answer))
        with service, net:
            reader = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            reader.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 64 * 1024)
            reader.connect(net.address)
            reader.settimeout(10.0)
            with reader:
                reader.sendall(reference_frame(QUERY))
                time.sleep(pause)
                data = b""
                while len(data) < HEADER_BYTES or \
                        len(data) < HEADER_BYTES + int.from_bytes(data[:HEADER_BYTES], "big"):
                    chunk = reader.recv(2**20)
                    if not chunk:
                        break
                    data += chunk
        return data

    def test_a_large_answer_waits_for_a_slow_reader(self):
        data = self._read_late(1.5)
        assert len(data) > 5 * 2**20
        payload = decode_payload(data[HEADER_BYTES:])
        assert payload["ok"] and len(payload["answers"]) == self.COUNT

    def test_a_reader_that_takes_nothing_is_dropped(self, monkeypatch):
        monkeypatch.setattr(server, "_DRAIN_GRACE", 0.3)
        data = self._read_late(1.5)
        assert HEADER_BYTES < len(data) < HEADER_BYTES + int.from_bytes(data[:HEADER_BYTES], "big")


# ----------------------------------------------------------------------
# The memoising client against a decode-every-reply client and naive
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def clients():
    """One server and both clients for every example; each example
    swaps in a fresh engine (a new epoch, so no body repeats across
    examples)."""
    service = QueryService(SegmentedSealSearch(PAIRS, "token", buffer_capacity=4))
    with service, NetworkServer(service) as net, \
            NetworkClient(*net.address, timeout=10.0) as memo:
        raw = RawClient(net.address)
        try:
            yield service, memo, raw
        finally:
            raw.close()


ops = st.lists(
    st.one_of(
        st.tuples(st.just("query"), st.integers(0, 3)),
        st.tuples(st.just("insert"), rects(), nonempty_token_sets),
        st.tuples(st.just("delete"), st.integers(min_value=0)),
    ),
    min_size=1, max_size=25,
)


@settings(max_examples=30, deadline=None)
@given(pool=st.lists(queries(), min_size=1, max_size=4), script=ops)
def test_memoising_client_matches_a_decoding_client_and_naive(clients, pool, script):
    service, memo, raw = clients
    service.swap_engine(SegmentedSealSearch(PAIRS, "token", buffer_capacity=4))
    live = dict(enumerate(PAIRS))
    for op in script:
        if op[0] == "insert":
            live[service.insert(op[1], op[2])] = (op[1], op[2])
        elif op[0] == "delete":
            if live:
                victim = sorted(live)[op[1] % len(live)]
                assert service.delete(victim) is True
                del live[victim]
        else:
            query = pool[op[1] % len(pool)]
            mine, theirs = memo.query(query), raw.query(query)
            assert mine.answers == theirs.answers == naive_answers(service.engine, live, query)
            assert mine.stats == theirs.stats
            assert memo.last_meta["epoch"] == service.epoch
            assert memo._frames[id(query)] == reference_frame(query)
