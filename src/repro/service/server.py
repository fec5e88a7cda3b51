"""Socket transport over :class:`~repro.service.service.QueryService`.

The service core is transport-agnostic (PR 4's ``QueryService`` never
sees a socket); this module is the network edge that speaks
:mod:`repro.service.protocol` over TCP:

* :func:`serve_connection` — the per-connection request loop any server
  flavor runs: read a frame, dispatch to the service, answer; finish
  the in-flight request on drain, then close.  Shared verbatim between
  the in-process threaded server below and the forked workers of
  :mod:`repro.service.workers`, which is what keeps the two paths
  answer-identical by construction.
* :class:`NetworkServer` — the single-process variant: one accept loop,
  one thread per connection, one ``QueryService``.  The differential
  oracle for the multi-process pool, and the right tool on a 1-core box.
* :class:`NetworkClient` — a blocking client: ``query`` /
  ``query_batch`` / ``ping`` / ``metrics``, server errors re-raised as
  their local exception types, connection loss surfaced loudly as
  :class:`~repro.core.errors.ProtocolError` (never a silent empty
  answer) and closing the connection.  A repeated query sends stored
  bytes and returns a copy of a stored decode.

Drain semantics: when a server's ``stop`` event sets, each connection
finishes the request it is currently serving — the response goes out —
and then the connection closes instead of reading another frame.  A
client mid-conversation sees EOF on its *next* request and reconnects,
landing on whichever worker is still listening.
"""

from __future__ import annotations

import logging
import os
import socket
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.errors import ProtocolError, SealError
from repro.core.objects import Query
from repro.core.stats import SearchResult
from repro.service.protocol import (
    HEADER_BYTES,
    REPL_PREFIX,
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
    results_from_wire,
)

DEFAULT_HOST = "127.0.0.1"

_LOG = logging.getLogger(__name__)

#: Listen backlog of every serving socket.
BACKLOG = 128

#: Seconds between stop-event checks while a server socket blocks.
_POLL_SECONDS = 0.2

#: Seconds a draining connection keeps waiting for the remainder of a
#: frame the client already started sending; past it the drain wins.
_DRAIN_GRACE = 5.0

#: Request-body bytes one connection's query memo may hold; it starts
#: over when the next body would pass this.  What it keeps grows with
#: the body: a typical ~200-byte query costs ~1.7 KiB, and the worst
#: measured case (4 KiB of two-character tokens: a frozenset plus one
#: str per token) ~19× its body — so a connection holds at most
#: ~2.5 MiB, or ~650 typical queries.
QUERY_MEMO_BYTES = 128 * 1024

#: Bytes a client asks of its first ``recv`` per response: a response
#: up to this size that has arrived whole is read in one call.
_RECV_BYTES = 64 * 1024

#: The serving-identity fields of every response.
_META_KEYS = ("epoch", "generation", "pid")


# ----------------------------------------------------------------------
# Server-side framing (stop-aware blocking reads)
# ----------------------------------------------------------------------


def _recv_bytes(
    conn: socket.socket,
    count: int,
    stop: threading.Event,
    *,
    mid_frame: bool,
) -> Optional[bytes]:
    """Exactly ``count`` bytes from ``conn``, polling the stop event.

    Returns ``None`` for a clean end: the peer closed (or the stop event
    set) *between* frames.  Mid-frame, EOF and drain-grace expiry are
    protocol violations instead.
    """
    chunks: List[bytes] = []
    received = 0
    stopped_at: Optional[float] = None
    while received < count:
        if stop.is_set():
            if not mid_frame and not received:
                return None
            if stopped_at is None:
                stopped_at = time.monotonic()
            elif time.monotonic() - stopped_at > _DRAIN_GRACE:
                raise ProtocolError(
                    "connection drained while a frame was still incomplete"
                )
        try:
            chunk = conn.recv(count - received)
        except socket.timeout:
            continue
        except OSError:
            if not mid_frame and not received:
                return None
            raise ProtocolError("connection lost mid-frame") from None
        if not chunk:
            if not mid_frame and not received:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({received}/{count} bytes)"
            )
        chunks.append(chunk)
        received += len(chunk)
    return b"".join(chunks)


def recv_body(conn: socket.socket, stop: threading.Event) -> Optional[bytes]:
    """One request frame's body bytes, or ``None`` on clean EOF / drain
    between frames.

    Raises:
        ProtocolError: Truncated frame or oversized/zero length prefix.
    """
    header = _recv_bytes(conn, HEADER_BYTES, stop, mid_frame=False)
    if header is None:
        return None
    length = check_frame_length(int.from_bytes(header, "big"))
    body = _recv_bytes(conn, length, stop, mid_frame=True)
    assert body is not None  # mid_frame reads never return None
    return body


# ----------------------------------------------------------------------
# Request dispatch (shared by every server flavor)
# ----------------------------------------------------------------------


def _batch_queries(request: Dict[str, Any]) -> List[Query]:
    """The validated queries of a ``batch`` request."""
    items = request.get("queries")
    if not isinstance(items, list):
        raise ProtocolError("'queries' must be a list of query objects")
    queries = []
    for position, item in enumerate(items):
        if not isinstance(item, dict):
            raise ProtocolError(f"'queries'[{position}] must be a query object")
        try:
            queries.append(query_from_wire(item))
        except ProtocolError as exc:
            raise ProtocolError(f"'queries'[{position}]: {exc}") from exc
    return queries


def _dispatch(service: Any, request: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one request that is neither ``query`` nor ``batch``
    against the service; returns the ok-payload."""
    op = request.get("op")
    if op == "ping":
        return {}
    if op == "metrics":
        metrics = service.metrics()
        replication = service.replication
        if replication is not None:
            metrics = dict(metrics, replication=replication.status())
        return {"metrics": metrics}
    if isinstance(op, str) and op.startswith(REPL_PREFIX):
        # The replication plane: a primary attaches its publisher to the
        # service (service.replication) and every repl-* op routes there.
        replication = service.replication
        if replication is None:
            raise ProtocolError(
                f"this server has no replication source attached "
                f"(op {op!r}); point the replica at the primary"
            )
        return replication.handle(request)
    raise ProtocolError(f"unknown op {op!r}")


def serve_connection(
    conn: socket.socket,
    service: Any,
    *,
    stop: threading.Event,
    meta: Callable[[], Dict[str, Any]],
) -> None:
    """Serve one client connection until EOF, drain, or a framing error.

    Requests run in lockstep (read → execute → respond).  Service-level
    failures (admission rejection, deadline, bad query fields, an answer
    too large for one frame) answer an error frame and the conversation
    continues; framing violations answer an error frame *and close* —
    after garbage bytes there is no reliable way back to a frame
    boundary.  When ``stop`` sets, the in-flight request finishes and
    its response is sent before the close, so a drained client never
    loses an answered query.

    A ``query`` op is answered by ``service.query_wire`` spliced into
    its frame, a ``batch`` op by its results' members spliced the same
    way.  The connection remembers the :class:`Query` each
    distinct ``query`` body validated to (up to :data:`QUERY_MEMO_BYTES`
    of bodies, then it starts over), so a byte-identical repeat skips
    JSON decode and validation; a body that failed either is never
    stored.
    """
    conn.settimeout(_POLL_SECONDS)
    memo: Dict[bytes, Query] = {}
    memo_bytes = 0
    # The serving identity and its encoded response envelope, re-encoded
    # only when the identity changes (an epoch bump, a replica's new
    # upstream generation).
    identity: Optional[Dict[str, Any]] = None
    envelope = b""
    try:
        while True:
            try:
                body = recv_body(conn, stop)
                if body is None:
                    return
                query = memo.get(body)
                request = decode_payload(body) if query is None else None
            except ProtocolError as exc:
                _send_error(conn, exc, meta)
                return
            try:
                if request is not None and request.get("op") == "query":
                    query = query_from_wire(request)
                    if len(body) <= QUERY_MEMO_BYTES:
                        if memo_bytes + len(body) > QUERY_MEMO_BYTES:
                            memo.clear()
                            memo_bytes = 0
                        memo[body] = query
                        memo_bytes += len(body)
                if query is None and request.get("op") != "batch":
                    payload = _dispatch(service, request)
                    frame = encode_frame({"ok": True, **meta(), **payload})
                else:
                    members = (
                        service.query_wire(query) if query is not None
                        else batch_members(service.query_batch(_batch_queries(request)))
                    )
                    current = meta()
                    if current != identity:
                        identity, envelope = current, result_envelope(current)
                    frame = result_frame(envelope, members)
            except SealError as exc:
                # Expected service-level failure (rejection, deadline,
                # bad query, oversized answer): answer the error frame
                # and keep serving.
                if not _send_error(conn, exc, meta):
                    return
            # repro-lint: disable=error-transport -- outermost connection boundary: the failure must cross as a frame; unexpected types are logged loudly here and the connection drops
            except Exception as exc:  # noqa: BLE001
                # Unexpected failure: this is a bug, not a client error.
                # Log it server-side with the traceback (the wire masks
                # it as ServiceError), answer, then drop the connection
                # — the service may be wedged.
                _LOG.exception(
                    "unexpected %s serving op %r; closing connection",
                    type(exc).__name__,
                    request.get("op") if request is not None else "query",
                )
                _send_error(conn, exc, meta)
                return
            else:
                if not _send(conn, frame):
                    return
            if stop.is_set():
                return
    finally:
        _close_socket(conn)


def accept_connections(
    listener: socket.socket,
    service: Any,
    *,
    stop: threading.Event,
    meta: Callable[[], Dict[str, Any]],
    thread_name: str,
) -> None:
    """The accept loop every server flavor runs: one
    :func:`serve_connection` thread per accepted connection until
    ``stop`` sets (or ``listener`` is closed), then a bounded wait per
    handler for its in-flight request to be answered."""
    try:
        listener.settimeout(_POLL_SECONDS)
    except OSError:
        return  # closed before the loop began: nothing was accepted
    handlers: List[threading.Thread] = []
    while not stop.is_set():
        try:
            conn, _ = listener.accept()
        except socket.timeout:
            continue
        except OSError:
            break
        thread = threading.Thread(
            target=serve_connection,
            args=(conn, service),
            kwargs={"stop": stop, "meta": meta},
            name=thread_name,
            daemon=True,
        )
        thread.start()
        handlers.append(thread)
        # Prune finished handlers so a long-lived server's thread list
        # doesn't grow with every connection ever served.
        handlers = [t for t in handlers if t.is_alive()]
    for thread in handlers:
        thread.join(timeout=_DRAIN_GRACE + 2.0)


def _send(conn: socket.socket, frame: bytes) -> bool:
    """Send one frame; False when the client went away mid-response.

    The socket's timeout is the stop-event poll, not a deadline for the
    frame: the send keeps going while the client takes bytes, and gives
    up only once it has taken none for :data:`_DRAIN_GRACE` seconds.
    """
    stalled: Optional[float] = None
    try:
        while True:
            try:
                sent = conn.send(frame)
            except socket.timeout:
                now = time.monotonic()
                if stalled is None:
                    stalled = now
                elif now - stalled > _DRAIN_GRACE:
                    return False
                continue
            if sent == len(frame):
                return True
            frame = memoryview(frame)[sent:]
            stalled = None
    except OSError:
        return False


def _send_error(
    conn: socket.socket,
    exc: BaseException,
    meta: Callable[[], Dict[str, Any]],
) -> bool:
    """Answer ``exc`` as an error frame; False when it could not go out
    (the client is gone, or the message alone exceeds the frame cap)."""
    try:
        frame = encode_frame({**error_to_wire(exc), **meta()})
    except ProtocolError:
        return False
    return _send(conn, frame)


def _close_socket(conn: socket.socket) -> None:
    try:
        conn.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    conn.close()


# ----------------------------------------------------------------------
# The single-process threaded server (and multi-process oracle)
# ----------------------------------------------------------------------


class NetworkServer:
    """A threaded TCP front end over one in-process :class:`QueryService`.

    One accept loop, one thread per connection, every connection sharing
    the service — whose admission controller bounds how many of those
    threads are inside the engine at once.
    This is the 1-core serving topology *and* the answer-identity oracle
    the multi-process pool is pinned against.

    Args:
        service: The :class:`~repro.service.service.QueryService` to
            expose.  The server does not own it: closing the server
            leaves the service usable (the CLI owns both lifetimes).
        host: Interface to bind.
        port: TCP port (0 picks a free one; see :attr:`address`).
        generation: Optional zero-arg callable supplying the
            ``generation`` field of every response's serving identity —
            ``None`` for single-process servers, a replica passes its
            upstream lineage generation so clients can attribute every
            answer to the primary state it reflects.
    """

    def __init__(
        self,
        service: Any,
        *,
        host: str = DEFAULT_HOST,
        port: int = 0,
        generation: Optional[Callable[[], Any]] = None,
    ) -> None:
        self._service = service
        self._generation = generation
        self._stop = threading.Event()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(BACKLOG)
        self._accept_thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — port resolved when 0 was asked."""
        return self._listener.getsockname()[:2]

    def _meta(self) -> Dict[str, Any]:
        return {
            "epoch": self._service.epoch,
            "generation": self._generation() if self._generation is not None else None,
            "pid": os.getpid(),
        }

    def start(self) -> "NetworkServer":
        """Begin accepting connections (idempotent)."""
        if self._accept_thread is None:
            self._accept_thread = threading.Thread(
                target=accept_connections,
                args=(self._listener, self._service),
                kwargs={
                    "stop": self._stop,
                    "meta": self._meta,
                    "thread_name": "seal-net-conn",
                },
                name="seal-net-accept",
                daemon=True,
            )
            self._accept_thread.start()
        return self

    def close(self) -> None:
        """Drain: stop accepting, finish in-flight requests, close."""
        self._stop.set()
        self._listener.close()
        if self._accept_thread is not None:
            # Returns once the accept loop has joined its handlers (each
            # join is bounded, so this one needs no bound of its own).
            self._accept_thread.join()

    def __enter__(self) -> "NetworkServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        host, port = self.address
        return f"NetworkServer({host}:{port}, service={self._service!r})"


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------


class NetworkClient:
    """A blocking protocol client for one server connection.

    Not thread-safe: requests on one connection run in lockstep, so give
    each client thread its own instance (connections are cheap).  Server
    errors re-raise as their local exception types; a typed error frame
    (an :class:`~repro.core.errors.AdmissionRejected`, an answer too
    large for one frame) leaves the connection usable.

    A transport failure closes the connection: a timeout, EOF
    mid-frame, an undecodable frame or a failed send raises
    :class:`~repro.core.errors.ProtocolError`, and so does every later
    call on this client — reconnect and retry.  (After a timeout the
    late answer is still on its way; read, it would answer the next
    request.)

    A repeated query is bytes in, bytes out.  The client remembers the
    request frame of each :class:`Query` object it has sent (by
    identity: equal queries may spell their numbers differently, ``1``
    and ``1.0`` or ``0.0`` and ``-0.0``, and each sends its own bytes),
    and the validated answer, stats and serving identity of each
    distinct ok-response body (the body carries the serving identity,
    so an epoch bump is a new body).  Each memo keeps at most
    :data:`QUERY_MEMO_BYTES` of frames or bodies and starts over when
    the next would pass it; an error frame is never stored.  A hit
    returns a private copy, and :attr:`last_meta` is fresh either way.
    Batches and raw :meth:`call` requests bypass both memos.

    Attributes:
        last_meta: The serving identity of the most recent response:
            ``{"epoch", "generation", "pid"}``.  Lets callers attribute
            every answer to the engine version that produced it.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 30.0,
    ) -> None:
        self.last_meta: Dict[str, Any] = {}
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.settimeout(timeout)
        # Why the connection closed (None while it is open).
        self._lost: Optional[str] = None
        # id(query) -> its request frame; ``_asked`` keeps each of those
        # queries alive, so no id is reused while it is a key.
        self._frames: Dict[int, bytes] = {}
        self._asked: List[Query] = []
        self._frame_bytes = 0
        # ok-response body -> None once seen, then (result, serving
        # identity) once repeated; what they hold is never handed out.
        self._answers: Dict[bytes, Optional[Tuple[SearchResult, Dict[str, Any]]]] = {}
        self._answer_bytes = 0

    def _lose(self, exc: ProtocolError) -> ProtocolError:
        """Close the connection after a transport failure; returns
        ``exc`` for the caller to raise."""
        if self._lost is None:
            self._lost = str(exc)
            self._frames.clear()
            self._asked.clear()
            self._answers.clear()
            _close_socket(self._sock)
        return exc

    def _recv(self, limit: int, received: int, count: int) -> bytes:
        """One ``recv`` of up to ``limit`` bytes, ``received`` of the
        ``count`` the current read wants being in already."""
        try:
            chunk = self._sock.recv(limit)
        except socket.timeout as exc:
            raise ProtocolError(
                f"timed out waiting for the server ({received}/{count} bytes)"
            ) from exc
        except OSError as exc:
            raise ProtocolError(f"connection lost: {exc}") from exc
        if not chunk:
            raise ProtocolError(
                "connection closed by the server mid-response "
                "(server drained or worker crashed); reconnect and retry"
            )
        return chunk

    def _read_body(self) -> bytes:
        """The next response frame's body.  A response that has arrived
        whole — the usual case — takes one ``recv``."""
        head = self._recv(_RECV_BYTES, 0, HEADER_BYTES)
        while len(head) < HEADER_BYTES:
            head += self._recv(HEADER_BYTES - len(head), len(head), HEADER_BYTES)
        length = check_frame_length(int.from_bytes(head[:HEADER_BYTES], "big"))
        body = head[HEADER_BYTES:]
        if len(body) == length:
            return body
        if len(body) > length:
            raise ProtocolError(
                f"the server sent {len(body) - length} bytes past its response"
            )
        chunks = [body]
        received = len(body)
        while received < length:
            chunk = self._recv(length - received, received, length)
            chunks.append(chunk)
            received += len(chunk)
        return b"".join(chunks)

    def _exchange(self, frame: bytes) -> bytes:
        """Send one request frame and read the response body."""
        if self._lost is not None:
            raise ProtocolError(
                f"this connection is closed ({self._lost}); reconnect and retry"
            )
        try:
            self._sock.sendall(frame)
        except OSError as exc:
            raise self._lose(
                ProtocolError(f"connection lost while sending: {exc}")
            ) from exc
        try:
            return self._read_body()
        except ProtocolError as exc:
            raise self._lose(exc)

    def _payload(self, body: bytes) -> Dict[str, Any]:
        """Decode an ok-response body; an error frame raises its type."""
        try:
            payload = decode_payload(body)
        except ProtocolError as exc:
            raise self._lose(exc)
        self.last_meta = {key: payload.get(key) for key in _META_KEYS}
        if not payload.get("ok"):
            raise_from_wire(payload)
        return payload

    def _rpc(self, frame: bytes) -> Dict[str, Any]:
        return self._payload(self._exchange(frame))

    def query(self, query: Query) -> SearchResult:
        """One query over the wire; answers match a local engine call."""
        frame = self._frames.get(id(query))
        if frame is not None:
            body = self._exchange(frame)
        else:
            frame = query_frame(query)
            body = self._exchange(frame)
            if len(frame) <= QUERY_MEMO_BYTES:
                if self._frame_bytes + len(frame) > QUERY_MEMO_BYTES:
                    self._frames.clear()
                    self._asked.clear()
                    self._frame_bytes = 0
                self._frames[id(query)] = frame
                self._asked.append(query)
                self._frame_bytes += len(frame)
        size = len(body)
        answers = self._answers
        entry = answers.get(body) if size <= QUERY_MEMO_BYTES else None
        if entry is not None:
            self.last_meta = entry[1].copy()
            return entry[0].copy()
        result = result_from_wire(self._payload(body))
        if size <= QUERY_MEMO_BYTES:
            if body in answers:
                # Its second sighting: from now on, a repeat.
                answers[body] = (result.copy(), self.last_meta.copy())
            else:
                # Its first: only the bytes, so a body that never
                # repeats costs no copy.
                if self._answer_bytes + size > QUERY_MEMO_BYTES:
                    answers.clear()
                    self._answer_bytes = 0
                answers[body] = None
                self._answer_bytes += size
        return result

    def search(self, region, tokens, tau_r: float, tau_t: float) -> SearchResult:
        """Convenience single query from raw parts (mirrors the engines)."""
        return self.query(Query(region, frozenset(tokens), tau_r, tau_t))

    def query_batch(self, queries: Sequence[Query]) -> List[SearchResult]:
        """A burst in one frame, coalesced server-side by the service."""
        payload = self._rpc(encode_frame(
            {"op": "batch", "queries": [query_to_wire(query) for query in queries]}
        ))
        items = payload.get("results")
        if not isinstance(items, list) or len(items) != len(queries):
            raise ProtocolError(
                f"batch answered {len(items) if isinstance(items, list) else '?'} "
                f"results for {len(queries)} queries"
            )
        return results_from_wire(items)

    def call(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """One raw request → its ok-response payload (meta included).

        The extension point for ops beyond the query plane — the
        replication applier drives its subscribe/fetch/snapshot
        conversation through this.  Server errors re-raise exactly like
        the typed methods.
        """
        return dict(self._rpc(encode_frame(request)))

    def ping(self) -> Dict[str, Any]:
        """Round-trip returning the serving identity (epoch/generation/pid)."""
        return self.call({"op": "ping"})

    def metrics(self) -> Dict[str, Any]:
        """The serving process's metrics document."""
        metrics = self.call({"op": "metrics"}).get("metrics")
        if not isinstance(metrics, dict):
            raise ProtocolError("metrics response carried no metrics object")
        return metrics

    def close(self) -> None:
        self._lose(ProtocolError("the client was closed"))

    def __enter__(self) -> "NetworkClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
