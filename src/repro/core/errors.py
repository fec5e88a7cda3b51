"""Exception hierarchy for the SEAL library.

A single root (:class:`SealError`) lets callers catch everything the
library raises deliberately, while the subclasses distinguish user errors
(bad query/threshold) from configuration errors (unknown method name,
inconsistent index parameters).
"""

from __future__ import annotations


class SealError(Exception):
    """Root of all errors raised deliberately by the repro library."""


class InvalidQueryError(SealError, ValueError):
    """A query's thresholds or payload are outside the supported domain."""


class ConfigurationError(SealError, ValueError):
    """An engine/index was configured with inconsistent parameters."""


class IndexBuildError(SealError, RuntimeError):
    """An index could not be constructed from the given corpus."""


class ServiceError(SealError, RuntimeError):
    """The serving layer could not honor a request (see subclasses)."""


class AdmissionRejected(ServiceError):
    """The service is saturated: every execution slot busy and the
    queue full.

    Raised *loudly* on arrival instead of queueing unboundedly —
    back-pressure is the client's signal to retry later or shed load.
    """


class DeadlineExceeded(ServiceError):
    """A request's deadline passed while it waited for an execution slot."""


class ReplicationError(ServiceError):
    """The replication plane could not keep a replica aligned.

    Raised on divergence (a lineage marker the primary's log cannot
    serve, a shipped frame failing its checksum, replay drift) — the
    loud signal that a replica must re-bootstrap from a checkpoint
    snapshot rather than keep serving answers of unknown provenance.
    """


class ProtocolError(ServiceError):
    """A network frame violated the wire protocol, or the peer vanished.

    Raised on both sides of the socket: servers reject truncated,
    oversized, or undecodable frames with it (then close the
    connection — framing cannot resynchronise after garbage), and
    clients raise it when a connection dies mid-response (a draining
    server or a crashed worker) — loudly, never by inventing an answer.
    """
