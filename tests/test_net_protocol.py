"""Wire-protocol tests: codec roundtrips and hostile-frame robustness.

The codec half is pure-function testing.  The transport half drives
:func:`serve_connection` over a ``socketpair`` with a stub service so
truncated frames, oversized/garbage length prefixes, client
disconnects mid-conversation, and drain semantics are all pinned
without binding a port.
"""

from __future__ import annotations

import socket
import string
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Query, Rect
from repro.core.errors import (
    AdmissionRejected,
    DeadlineExceeded,
    ProtocolError,
    SealError,
    ServiceError,
)
from repro.core.stats import SearchResult, SearchStats
from repro.service.protocol import (
    HEADER_BYTES,
    MAX_FRAME_BYTES,
    batch_members,
    check_frame_length,
    decode_payload,
    encode_frame,
    error_to_wire,
    query_frame,
    query_from_wire,
    query_to_wire,
    raise_from_wire,
    result_envelope,
    result_frame,
    result_from_wire,
    result_members,
    result_to_wire,
)
from repro.service import protocol, server
from repro.service.server import serve_connection


class TestCodec:
    def test_query_roundtrip(self):
        query = Query(Rect(1.0, 2.0, 3.5, 4.5), frozenset({"b", "a"}), 0.25, 0.4)
        rebuilt = query_from_wire(query_to_wire(query))
        assert rebuilt == query

    def test_result_roundtrip(self):
        result = SearchResult(
            answers=[3, 1, 7],
            stats=SearchStats(lists_probed=2, entries_retrieved=40, results=3),
        )
        rebuilt = result_from_wire(result_to_wire(result))
        assert rebuilt.answers == [3, 1, 7]
        assert rebuilt.stats.entries_retrieved == 40
        assert rebuilt.stats.lists_probed == 2

    def test_frame_roundtrip(self):
        frame = encode_frame({"op": "ping"})
        length = int.from_bytes(frame[:HEADER_BYTES], "big")
        assert length == len(frame) - HEADER_BYTES
        assert decode_payload(frame[HEADER_BYTES:]) == {"op": "ping"}

    def test_encode_rejects_oversized_payload(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 32)
        with pytest.raises(ProtocolError, match="exceeds the 32-byte limit"):
            encode_frame({"blob": "x" * 64})

    @pytest.mark.parametrize("length", [0, -1, MAX_FRAME_BYTES + 1])
    def test_check_frame_length_rejects(self, length):
        with pytest.raises(ProtocolError):
            check_frame_length(length)

    def test_http_masquerading_as_length_is_rejected(self):
        # b"GET " read as a big-endian length is ~1.1 GB: the protocol
        # must refuse before allocating anything.
        length = int.from_bytes(b"GET ", "big")
        with pytest.raises(ProtocolError, match="exceeds"):
            check_frame_length(length)

    @pytest.mark.parametrize("body", [b"\xff\xfe garbage", b"[1, 2, 3]", b'"str"'])
    def test_decode_rejects_non_object_bodies(self, body):
        with pytest.raises(ProtocolError):
            decode_payload(body)

    @pytest.mark.parametrize(
        "fields",
        [
            {},
            {"region": [1, 2, 3], "tokens": [], "tau_r": 0.1, "tau_t": 0.1},
            {"region": [1, 2, 3, True], "tokens": [], "tau_r": 0.1, "tau_t": 0.1},
            {"region": [0, 0, 1, 1], "tokens": "ab", "tau_r": 0.1, "tau_t": 0.1},
            {"region": [0, 0, 1, 1], "tokens": [1], "tau_r": 0.1, "tau_t": 0.1},
            {"region": [0, 0, 1, 1], "tokens": [], "tau_t": 0.1},
            {"region": [0, 0, 1, 1], "tokens": [], "tau_r": True, "tau_t": 0.1},
            {"region": [0, 0, 1, 1], "tokens": [], "tau_r": 5.0, "tau_t": 0.1},
        ],
    )
    def test_query_from_wire_rejects_malformed_fields(self, fields):
        with pytest.raises(ProtocolError):
            query_from_wire(fields)

    @pytest.mark.parametrize(
        "fields",
        [
            {},
            {"answers": "1,2", "stats": {}},
            {"answers": [1, 2.0], "stats": {}},
            {"answers": [True, False], "stats": {}},
            {"answers": [1], "stats": [1]},
            {"answers": [1], "stats": {"lists_probed": "lots"}},
            {"answers": [1], "stats": {"candidates": True}},
            {"answers": [1], "stats": {"results": 2.0}},
            {"answers": [1], "stats": {"filter_seconds": "fast"}},
            {"answers": [1], "stats": {"verify_seconds": False}},
        ],
    )
    def test_result_from_wire_rejects_malformed_fields(self, fields):
        with pytest.raises(ProtocolError):
            result_from_wire(fields)


#: Any JSON-encodable stats float, non-finite ones included (the encoder
#: spells them NaN / Infinity on both paths alike).
_seconds = st.floats(allow_nan=True, allow_infinity=True)
_counter = st.integers(min_value=0, max_value=2**63)


@settings(max_examples=200, deadline=None)
@given(
    answers=st.lists(st.integers(min_value=-(2**63), max_value=2**63)),
    counters=st.tuples(*[_counter] * 5),
    seconds=st.tuples(_seconds, _seconds),
    epoch=st.integers(min_value=0, max_value=2**63),
    generation=st.none() | st.integers(min_value=0, max_value=2**63),
    pid=st.integers(min_value=0, max_value=2**31),
)
def test_spliced_result_frame_is_byte_identical(answers, counters, seconds, epoch, generation, pid):
    """The cached-bytes path encodes exactly what the dict path does."""
    stats = SearchStats(*counters, *seconds)
    result = SearchResult(answers=answers, stats=stats)
    meta = {"epoch": epoch, "generation": generation, "pid": pid}
    assert result_frame(result_envelope(meta), result_members(result)) == encode_frame(
        {"ok": True, **meta, **result_to_wire(result)}
    )


#: Coordinates as they reach the encoder: ints, floats (±inf included),
#: and the NumPy floats a generated corpus carries.
_coordinate = st.one_of(
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=True),
    st.floats(allow_nan=False, allow_infinity=True).map(np.float64),
)

#: Tokens the encoder must escape: quote, backslash, control
#: characters and non-ASCII, beside anything else.
_token = st.text(
    alphabet=st.one_of(st.sampled_from('"\\\x00\x07\n\x1f\x7fé漢\U0001f600a'), st.characters()),
    max_size=6,
)

#: τ at both ends, spelled as int, float and bool (JSON ``false`` /
#: ``true``, which the server then refuses), and anything between.
_tau = st.one_of(st.sampled_from([0, 1, 0.0, 1.0, False, True]),
                 st.floats(min_value=0.0, max_value=1.0))


@st.composite
def _queries(draw) -> Query:
    x1, x2 = sorted(draw(st.tuples(_coordinate, _coordinate)))
    y1, y2 = sorted(draw(st.tuples(_coordinate, _coordinate)))
    return Query(Rect(x1, y1, x2, y2), draw(st.frozensets(_token, max_size=5)),
                 draw(_tau), draw(_tau))


@st.composite
def _results(draw) -> SearchResult:
    kind = draw(st.sampled_from([int, np.int64, np.int32]))
    answers = draw(st.lists(st.integers(min_value=0, max_value=2**31 - 1), max_size=8))
    seconds = st.one_of(st.sampled_from([0, 0.0]), _seconds)
    stats = SearchStats(*draw(st.tuples(*[_counter] * 5)), draw(seconds), draw(seconds))
    return SearchResult(answers=[kind(a) for a in answers], stats=stats)


@settings(max_examples=200, deadline=None)
@given(queries=st.lists(_queries(), max_size=4), results=st.lists(_results(), max_size=4),
       generation=st.none() | st.integers(min_value=0, max_value=2**63))
def test_formatted_frames_are_byte_identical_to_the_dict_encoding(queries, results, generation):
    """Every formatted frame is ``encode_frame`` of its dict form: the
    ``query`` request, a result's members, and the spliced ``batch``
    response."""
    for query in queries:
        assert query_frame(query) == encode_frame({"op": "query", **query_to_wire(query)})
    meta = {"epoch": 3, "generation": generation, "pid": 42}
    envelope = result_envelope(meta)
    for result in results:
        assert result_frame(envelope, result_members(result)) == encode_frame(
            {"ok": True, **meta, **result_to_wire(result)}
        )
    assert result_frame(envelope, batch_members(results)) == encode_frame(
        {"ok": True, **meta, "results": [result_to_wire(result) for result in results]}
    )


class TestErrorEnvelopes:
    @pytest.mark.parametrize(
        "exc", [AdmissionRejected("full"), DeadlineExceeded("late"), ProtocolError("bad")]
    )
    def test_seal_errors_roundtrip_to_their_own_type(self, exc):
        with pytest.raises(type(exc), match=str(exc)):
            raise_from_wire(error_to_wire(exc))

    def test_unexpected_exceptions_are_masked(self):
        wire = error_to_wire(KeyError("secret internal state"))
        assert wire["kind"] == "ServiceError"
        with pytest.raises(ServiceError):
            raise_from_wire(wire)

    def test_unknown_kind_degrades_to_service_error(self):
        with pytest.raises(ServiceError, match="boom"):
            raise_from_wire({"ok": False, "kind": "NoSuchError", "error": "boom"})


# ----------------------------------------------------------------------
# serve_connection over a socketpair
# ----------------------------------------------------------------------


class StubService:
    """Answers every query with a fixed result; counts calls."""

    epoch = 7
    replication = None

    def __init__(self) -> None:
        self.calls = 0

    def query(self, query):
        self.calls += 1
        return SearchResult(answers=[1, 2], stats=SearchStats(results=2))

    def query_wire(self, query):
        return result_members(self.query(query))

    def query_batch(self, queries):
        return [self.query(q) for q in queries]

    def metrics(self):
        return {"epoch": self.epoch}


@pytest.fixture()
def conversation(monkeypatch):
    """A served socketpair: (client socket, stub service, stop event).

    The server side runs in a thread; the fixture joins it on teardown so
    a hung connection loop fails the test instead of leaking.
    """
    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 4096)
    server_side, client_side = socket.socketpair()
    service = StubService()
    stop = threading.Event()
    meta = lambda: {"epoch": service.epoch, "generation": None, "pid": 0}  # noqa: E731
    thread = threading.Thread(
        target=serve_connection,
        args=(server_side, service),
        kwargs={"stop": stop, "meta": meta},
        daemon=True,
    )
    thread.start()
    client_side.settimeout(5.0)
    yield client_side, service, stop
    stop.set()
    client_side.close()
    thread.join(timeout=10.0)
    assert not thread.is_alive(), "serve_connection failed to terminate"


@pytest.fixture()
def decoded(monkeypatch):
    """The request fields the server validated into a Query, in order."""
    calls = []
    real = server.query_from_wire
    monkeypatch.setattr(server, "query_from_wire", lambda fields: calls.append(fields) or real(fields))
    return calls


def _read_frame(sock: socket.socket) -> dict:
    def exact(count: int) -> bytes:
        chunks = b""
        while len(chunks) < count:
            chunk = sock.recv(count - len(chunks))
            assert chunk, f"peer closed after {len(chunks)}/{count} bytes"
            chunks += chunk
        return chunks

    length = int.from_bytes(exact(HEADER_BYTES), "big")
    return decode_payload(exact(length))


def _read_eof(sock: socket.socket) -> None:
    assert sock.recv(1) == b"", "expected the server to close the connection"


VALID_QUERY = {
    "op": "query",
    "region": [0.0, 0.0, 10.0, 10.0],
    "tokens": ["a"],
    "tau_r": 0.1,
    "tau_t": 0.1,
}


class TestServeConnection:
    def test_query_response_carries_identity(self, conversation):
        client, service, _ = conversation
        client.sendall(encode_frame(VALID_QUERY))
        response = _read_frame(client)
        assert response["ok"] is True
        assert response["answers"] == [1, 2]
        assert response["epoch"] == 7
        assert service.calls == 1

    def test_truncated_frame_answers_error_and_closes(self, conversation):
        client, _, _ = conversation
        # Claim 100 bytes, send 10, close our write side.
        client.sendall((100).to_bytes(HEADER_BYTES, "big") + b"0123456789")
        client.shutdown(socket.SHUT_WR)
        response = _read_frame(client)
        assert response["ok"] is False
        assert response["kind"] == "ProtocolError"
        assert "mid-frame" in response["error"]
        _read_eof(client)

    def test_oversized_length_prefix_is_rejected_before_read(self, conversation):
        client, _, _ = conversation
        # The first 4 bytes of an HTTP request read as a ≈1.1 GB length.
        # (Only the prefix is sent: bytes left unread at close would RST
        # the socketpair before the error frame could be read back.)
        client.sendall(b"GET ")
        response = _read_frame(client)
        assert response["ok"] is False
        assert response["kind"] == "ProtocolError"
        _read_eof(client)

    def test_zero_length_frame_is_rejected(self, conversation):
        client, _, _ = conversation
        client.sendall((0).to_bytes(HEADER_BYTES, "big"))
        response = _read_frame(client)
        assert response["ok"] is False
        _read_eof(client)

    def test_garbage_body_answers_error_and_closes(self, conversation):
        client, _, _ = conversation
        body = b"\xff\xfe not json"
        client.sendall(len(body).to_bytes(HEADER_BYTES, "big") + body)
        response = _read_frame(client)
        assert response["ok"] is False
        assert response["kind"] == "ProtocolError"
        _read_eof(client)

    def test_service_level_error_keeps_connection_open(self, conversation):
        client, service, _ = conversation
        client.sendall(encode_frame({"op": "no-such-op"}))
        response = _read_frame(client)
        assert response["ok"] is False
        assert response["kind"] == "ProtocolError"
        # Unlike a framing violation, the conversation continues.
        client.sendall(encode_frame(VALID_QUERY))
        assert _read_frame(client)["ok"] is True
        assert service.calls == 1

    def test_malformed_query_fields_answer_error(self, conversation):
        client, service, _ = conversation
        client.sendall(encode_frame({"op": "query", "region": "everywhere"}))
        response = _read_frame(client)
        assert response["ok"] is False
        assert "region" in response["error"]
        assert service.calls == 0

    def test_invalid_body_is_never_memoized(self, conversation):
        client, service, _ = conversation
        frame = encode_frame({**VALID_QUERY, "tau_r": 5.0})
        errors = []
        for _ in range(2):
            client.sendall(frame)
            response = _read_frame(client)
            assert response["ok"] is False and response["kind"] == "ProtocolError"
            errors.append(response["error"])
        assert errors[0] == errors[1] and "tau_r" in errors[0]
        assert service.calls == 0

    def test_repeated_body_is_decoded_once(self, conversation, decoded):
        client, service, _ = conversation
        frame = encode_frame(VALID_QUERY)
        for _ in range(3):
            client.sendall(frame)
            assert _read_frame(client)["answers"] == [1, 2]
        assert len(decoded) == 1 and service.calls == 3
        # The same query spelled differently is a different body.
        client.sendall(encode_frame({**VALID_QUERY, "tokens": ["a", "a"]}))
        assert _read_frame(client)["ok"] is True
        assert len(decoded) == 2

    def test_memo_starts_over_at_its_byte_budget(self, conversation, decoded, monkeypatch):
        client, _, _ = conversation
        frames = [encode_frame({**VALID_QUERY, "tau_t": tau}) for tau in (0.1, 0.2, 0.3)]
        monkeypatch.setattr(server, "QUERY_MEMO_BYTES", 2 * (len(frames[0]) - HEADER_BYTES))
        for frame in frames + frames[:1]:
            client.sendall(frame)
            assert _read_frame(client)["ok"] is True
        # The third body would have passed the budget, so the memo
        # started over and the first one is decoded again.
        assert len(decoded) == 4

    def test_a_body_over_the_budget_is_not_memoized(self, conversation, decoded, monkeypatch):
        client, _, _ = conversation
        frame = encode_frame(VALID_QUERY)
        monkeypatch.setattr(server, "QUERY_MEMO_BYTES", len(frame) - HEADER_BYTES - 1)
        for _ in range(2):
            client.sendall(frame)
            assert _read_frame(client)["answers"] == [1, 2]
        assert len(decoded) == 2

    def test_token_heavy_bodies_keep_the_memo_to_a_few_mib(self, conversation):
        """A remembered Query costs many times its body (one str per
        token), so the memo is bounded by the bytes it keeps: 200
        distinct ~4 KiB bodies of 780 two-character tokens would pin
        ~15 MB with no bound; the budget keeps ~32 of them."""
        client, _, _ = conversation
        alphabet = string.ascii_letters + string.digits
        tokens = [alphabet[i % 62] + alphabet[i // 62] for i in range(780)]

        def heavy(k: int) -> bytes:
            return encode_frame({**VALID_QUERY, "tokens": tokens, "tau_t": (k + 1) / 256})

        tracemalloc.start()
        try:
            for k in range(200):
                client.sendall(heavy(k))
                assert _read_frame(client)["ok"] is True
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_client_disconnect_between_frames_is_clean(self, conversation):
        client, _, _ = conversation
        client.sendall(encode_frame(VALID_QUERY))
        _read_frame(client)
        client.shutdown(socket.SHUT_WR)
        _read_eof(client)

    def test_client_disconnect_mid_response_does_not_wedge(self, conversation):
        # The client sends a request and vanishes without reading the
        # answer; the server must just drop the connection (the fixture's
        # join asserts the loop terminated).
        client, _, _ = conversation
        client.sendall(encode_frame(VALID_QUERY))
        client.close()

    def test_drain_finishes_in_flight_then_closes(self, conversation):
        client, _, stop = conversation
        client.sendall(encode_frame(VALID_QUERY))
        assert _read_frame(client)["ok"] is True
        stop.set()
        _read_eof(client)

    def test_batch_round_trip(self, conversation):
        client, service, _ = conversation
        fields = {k: v for k, v in VALID_QUERY.items() if k != "op"}
        client.sendall(encode_frame({"op": "batch", "queries": [fields, fields]}))
        response = _read_frame(client)
        assert response["ok"] is True
        assert [r["answers"] for r in response["results"]] == [[1, 2], [1, 2]]
        assert service.calls == 2

    def test_ping_and_metrics(self, conversation):
        client, _, _ = conversation
        client.sendall(encode_frame({"op": "ping"}))
        assert _read_frame(client)["ok"] is True
        client.sendall(encode_frame({"op": "metrics"}))
        assert _read_frame(client)["metrics"] == {"epoch": 7}
