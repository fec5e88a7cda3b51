"""The wire protocol: length-prefixed JSON frames, dependency-free.

One frame is a 4-byte big-endian unsigned length followed by exactly
that many bytes of UTF-8 JSON encoding one object.  Requests and
responses alternate in lockstep on a connection (no pipelining) —
deliberately the simplest protocol that a shell script, another
language, or a packet capture can speak and read:

==================  ===================================================
request             shape
==================  ===================================================
``query``           ``{"op": "query", "region": [x1, y1, x2, y2],
                    "tokens": [...], "tau_r": 0.4, "tau_t": 0.4}``
``batch``           ``{"op": "batch", "queries": [<query fields>, ...]}``
``ping``            ``{"op": "ping"}``
``metrics``         ``{"op": "metrics"}``
``repl-subscribe``  ``{"op": "repl-subscribe", "replica": "<id>"}``
``repl-fetch``      ``{"op": "repl-fetch", "replica": "<id>",
                    "generation": G, "offset": O,
                    "applied": [G, O]}``
``repl-snapshot``   ``{"op": "repl-snapshot", "file":
                    "snapshot"|"sidecar", "offset": O}``
==================  ===================================================

The ``repl-*`` ops are the WAL-shipping replication plane (see
:mod:`repro.service.replication`); a server without a replication
source attached answers them with a loud error frame.  Raw bytes (WAL
frames, snapshot chunks) cross inside the JSON envelope as base64 text
via :func:`bytes_to_wire` / :func:`bytes_from_wire`.

Every response carries ``ok`` plus the serving identity — ``epoch``
(the in-process engine version), ``generation`` (a replica's upstream
WAL generation, else ``None``) and ``pid`` —
so a client can always tell *which* engine answered.  Success adds the
op's payload (``answers`` + ``stats`` for a query, ``results`` for a
batch, ``metrics`` for metrics); failure is ``{"ok": false, "kind":
"<exception class>", "error": "<message>"}`` and :func:`raise_from_wire`
maps ``kind`` back onto the :class:`~repro.core.errors.SealError`
hierarchy client-side, so a networked
:class:`~repro.core.errors.AdmissionRejected` raises exactly like a
local one.

A query's ok-response can also be built from bytes: :func:`result_members`
encodes its ``"answers":…,"stats":…`` members once (the result cache
keeps them), and :func:`result_frame` splices the
``{"ok":true,"epoch":…,"generation":…,"pid":…,`` envelope of
:func:`result_envelope` in front — byte-identical to encoding the whole
object again.  A batch's ok-response splices its results' members the
same way (:func:`batch_members`).

The frames every query pays for are formatted, not encoded from a dict:
:func:`query_frame` (the client's request) and :func:`result_members`
are one ``%``-format each over the fields, with numbers spelled as the
JSON encoder spells them and token lists encoded by it — byte-identical
to :func:`encode_frame` of the dict forms (:func:`query_to_wire`,
:func:`result_to_wire`), which stay the reference.

Every frame, in both directions, is capped at :data:`MAX_FRAME_BYTES`.

This module is pure codec — no sockets.  The transport loops (server
accept/drain, client blocking reads) live in
:mod:`repro.service.server`.
"""

from __future__ import annotations

import base64
import binascii
import json
from typing import Any, Dict, List, Mapping, Sequence

from repro.core.errors import (
    AdmissionRejected,
    ConfigurationError,
    DeadlineExceeded,
    InvalidQueryError,
    ProtocolError,
    ReplicationError,
    SealError,
    ServiceError,
)
from repro.core.objects import Query, query_from_record, query_to_record
from repro.core.stats import SearchResult, SearchStats

#: Hard per-frame byte cap (length prefix included payload only).  Large
#: enough for any sane batch, small enough that a garbage length prefix
#: (e.g. a client speaking HTTP at us: ``b"GET "`` is 0x47455420 ≈ 1.1 GB)
#: is rejected before a single allocation.
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: Length-prefix width in bytes.
HEADER_BYTES = 4

#: The replication-plane op names (prefix-routed by the server: every
#: ``repl-*`` op goes to the service's attached replication source).
REPL_SUBSCRIBE = "repl-subscribe"
REPL_FETCH = "repl-fetch"
REPL_SNAPSHOT = "repl-snapshot"
REPL_OPS = (REPL_SUBSCRIBE, REPL_FETCH, REPL_SNAPSHOT)

#: Prefix that routes an op to the replication handler.
REPL_PREFIX = "repl-"

#: The ``kind`` values an error response may carry, mapped back onto the
#: exception the client raises.  Unknown kinds degrade to ServiceError.
ERROR_KINDS: Dict[str, type] = {
    "AdmissionRejected": AdmissionRejected,
    "ConfigurationError": ConfigurationError,
    "DeadlineExceeded": DeadlineExceeded,
    "InvalidQueryError": InvalidQueryError,
    "ProtocolError": ProtocolError,
    "ReplicationError": ReplicationError,
    "ServiceError": ServiceError,
    "SealError": SealError,
}


#: The one compact encoder every frame goes through (``json.dumps`` with
#: ``separators`` would build a fresh encoder per call).  Stateless
#: between calls, so threads share it.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


def encode_frame(payload: Mapping[str, Any]) -> bytes:
    """One wire frame: 4-byte big-endian length + compact JSON bytes.

    Raises:
        ProtocolError: The encoded payload exceeds
            :data:`MAX_FRAME_BYTES` — the sender finds out locally
            instead of the peer dropping it.
    """
    return _framed(_ENCODER.encode(payload).encode("utf-8"))


# ----------------------------------------------------------------------
# Formatted frames: the hot requests and responses, byte-identical to
# encode_frame of their dict forms, without walking a dict
# ----------------------------------------------------------------------


#: How JSON spells the floats ``repr`` spells ``inf`` / ``-inf`` / ``nan``.
_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _number(value: Any) -> str:
    """``value`` as :data:`_ENCODER` spells it: ``float.__repr__`` for
    any float (``Infinity`` / ``-Infinity`` / ``NaN`` when not finite),
    ``int.__repr__`` for any int but a bool, and the encoder itself for
    anything else — a bool, or a type it refuses with its own
    ``TypeError``."""
    if isinstance(value, float):
        text = float.__repr__(value)
        return _NON_FINITE.get(text, text)
    if isinstance(value, int) and value.__class__ is not bool:
        return int.__repr__(value)
    return _ENCODER.encode(value)


#: A query's wire fields (:func:`query_to_wire`) as one format.
_QUERY_FIELDS = '"region":[%s,%s,%s,%s],"tokens":[%s],"tau_r":%s,"tau_t":%s'


def _query_fields(query: Query) -> str:
    region = query.region
    return _QUERY_FIELDS % (
        _number(region.x1), _number(region.y1), _number(region.x2), _number(region.y2),
        # The encoder spells a lone string without building its list
        # machinery, and exactly as it spells one inside the list.
        ",".join(map(_ENCODER.encode, sorted(query.tokens))),
        _number(query.tau_r), _number(query.tau_t),
    )


def query_frame(query: Query) -> bytes:
    """A ``query`` request frame, byte-identical to
    ``encode_frame({"op": "query", **query_to_wire(query)})``.

    Raises:
        ProtocolError: As :func:`encode_frame`.
    """
    return _framed(('{"op":"query",%s}' % _query_fields(query)).encode("utf-8"))


def result_members(result: SearchResult) -> bytes:
    """The ``"answers":…,"stats":…`` members of a query response (the
    object :func:`result_to_wire` makes, without its braces), encoded
    once: the part of the frame a cached answer can keep as bytes."""
    stats = result.stats
    answers = result.answers
    return (_RESULT_MEMBERS % (
        # "%d" is int(oid) spelled by int.__repr__, NumPy integers included.
        ("%d," * len(answers) % tuple(answers))[:-1],
        _number(stats.lists_probed), _number(stats.entries_retrieved),
        _number(stats.entries_matched), _number(stats.candidates), _number(stats.results),
        _number(stats.filter_seconds), _number(stats.verify_seconds),
    )).encode("utf-8")


def batch_members(results: Sequence[SearchResult]) -> bytes:
    """The ``"results":[…]`` member of a batch response, each result's
    object spliced from its :func:`result_members`."""
    return b'"results":[%s]' % b",".join([b"{%s}" % result_members(r) for r in results])


def result_envelope(meta: Mapping[str, Any]) -> bytes:
    """The ``{"ok":true,<meta>,`` head of an ok-response; it changes
    only when the serving identity does, so a connection keeps it across
    responses."""
    return _ENCODER.encode({"ok": True, **meta})[:-1].encode("utf-8") + b","


def result_frame(envelope: bytes, members: bytes) -> bytes:
    """An ok-response frame: :func:`result_envelope` spliced in front of
    encoded members — a query's :func:`result_members`, byte-identical to
    ``encode_frame({"ok": True, **meta, **result_to_wire(result)})``, or
    a batch's :func:`batch_members`, byte-identical to ``encode_frame({"ok":
    True, **meta, "results": [result_to_wire(r) for r in results]})``.

    Raises:
        ProtocolError: As :func:`encode_frame`.
    """
    return _framed(envelope + members + b"}")


def _framed(body: bytes) -> bytes:
    check_frame_length(len(body))
    return len(body).to_bytes(HEADER_BYTES, "big") + body


def decode_payload(body: bytes) -> Dict[str, Any]:
    """Decode one frame body back into its JSON object.

    Raises:
        ProtocolError: The bytes are not UTF-8 JSON, or decode to
            something other than an object.
    """
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame must decode to a JSON object, got {type(payload).__name__}"
        )
    return payload


def check_frame_length(length: int) -> int:
    """Validate a decoded length prefix before any allocation happens."""
    if length <= 0:
        raise ProtocolError(f"invalid frame length {length} (must be positive)")
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return length


# ----------------------------------------------------------------------
# Binary payloads (WAL frames, snapshot chunks) inside JSON frames
# ----------------------------------------------------------------------


def bytes_to_wire(data: bytes) -> str:
    """Raw bytes as base64 ASCII text, safe inside a JSON frame."""
    return base64.b64encode(data).decode("ascii")


def bytes_from_wire(text: Any) -> bytes:
    """Decode a base64 wire field back to bytes.

    Raises:
        ProtocolError: The field is not a string or not valid base64 —
            a peer shipping half-encoded bytes is a protocol violation,
            never silently-empty data.
    """
    if not isinstance(text, str):
        raise ProtocolError(
            f"binary field must be a base64 string, got {type(text).__name__}"
        )
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except (binascii.Error, UnicodeEncodeError, ValueError) as exc:
        raise ProtocolError(f"undecodable base64 field: {exc}") from exc


# ----------------------------------------------------------------------
# Value conversions (Query / SearchResult <-> JSON-safe dicts)
# ----------------------------------------------------------------------


#: The query's wire fields (merged into the request object): the same
#: record a workload file holds per line.
query_to_wire = query_to_record


def query_from_wire(fields: Mapping[str, Any]) -> Query:
    """Rebuild a :class:`Query` from wire fields.

    Raises:
        ProtocolError: Malformed region/tokens/threshold fields — the
            server answers a loud error frame instead of a stack trace.
    """
    try:
        return query_from_record(fields)
    except InvalidQueryError as exc:
        raise ProtocolError(str(exc)) from exc


#: The stats fields that travel; mirrors SearchStats so a networked
#: result carries the same instrumentation a local one does.
_COUNTER_FIELDS = (
    "lists_probed",
    "entries_retrieved",
    "entries_matched",
    "candidates",
    "results",
)
_STATS_FIELDS = _COUNTER_FIELDS + ("filter_seconds", "verify_seconds")

#: The object :func:`result_to_wire` makes, without its braces, as one
#: format: the answers, then each stats field in order.
_RESULT_MEMBERS = '"answers":[%s],"stats":{' + ",".join(
    f'"{name}":%s' for name in _STATS_FIELDS
) + "}"

#: Each stats field with the value a missing one takes, the exact types
#: a present one may have (JSON ``true`` is a ``bool``, never an ``int``
#: here) and their name in the complaint.
_STATS_CHECKS = tuple(
    (name, 0, (int,), "an integer") for name in _COUNTER_FIELDS
) + tuple(
    (name, 0.0, (int, float), "a number") for name in _STATS_FIELDS[len(_COUNTER_FIELDS):]
)

_INT_ONLY = frozenset({int})


def result_to_wire(result: SearchResult) -> Dict[str, Any]:
    """A result's wire fields: answer oids + flat stats counters."""
    stats = result.stats
    return {
        "answers": [int(oid) for oid in result.answers],
        "stats": {name: getattr(stats, name) for name in _STATS_FIELDS},
    }


def result_from_wire(fields: Mapping[str, Any]) -> SearchResult:
    """Rebuild a :class:`SearchResult` from wire fields, in one pass of
    exact-type checks.

    Raises:
        ProtocolError: Missing/malformed answers or stats — a server
            that sends half a result is a protocol violation, not a
            quiet [].  JSON ``true`` is an ``int`` to Python but never
            an oid or a counter here.
    """
    answers = fields.get("answers")
    if type(answers) is not list or not set(map(type, answers)) <= _INT_ONLY:
        raise ProtocolError("'answers' must be a list of integer oids")
    stats_fields = fields.get("stats") or {}
    if type(stats_fields) is not dict:
        raise ProtocolError("'stats' must be an object")
    values = []
    for name, missing, kinds, noun in _STATS_CHECKS:
        value = stats_fields.get(name, missing)
        if type(value) not in kinds:
            raise ProtocolError(f"stat {name!r} must be {noun}, got {type(value).__name__}")
        values.append(value)
    return SearchResult(list(answers), SearchStats(*values))


def results_from_wire(items: Sequence[Mapping[str, Any]]) -> List[SearchResult]:
    return [result_from_wire(item) for item in items]


# ----------------------------------------------------------------------
# Error envelopes
# ----------------------------------------------------------------------


def error_to_wire(exc: BaseException) -> Dict[str, Any]:
    """The error response for one failed request."""
    kind = type(exc).__name__
    if not isinstance(exc, SealError):
        # Unexpected server-side failures cross the wire as a generic
        # kind: internals (paths, object reprs) stay server-side logs.
        kind = "ServiceError"
    return {"ok": False, "kind": kind, "error": str(exc)}


def raise_from_wire(payload: Mapping[str, Any]) -> None:
    """Re-raise a server error response as its local exception type."""
    kind = payload.get("kind")
    message = payload.get("error", "server reported an error")
    exc_type = ERROR_KINDS.get(kind, ServiceError) if isinstance(kind, str) else ServiceError
    raise exc_type(str(message))
