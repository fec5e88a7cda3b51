"""The serving layer: concurrent, cached, admission-controlled queries.

Everything below the service boundary is a library (engines, executors,
indexes); this package is the first layer whose correctness is
*concurrency-dependent* — it holds one engine for many client threads
and survives updates and engine swaps without handing out stale
answers.

* :mod:`repro.service.cache` — :class:`ResultCache`: LRU, keyed on
  ``(epoch, query)`` so churn invalidates by construction; entries are
  defensive copies both ways.
* :mod:`repro.service.admission` — :class:`AdmissionController`:
  bounded concurrency + queue-depth limit + per-request deadlines, all
  on the caller's thread; overflow rejects loudly.
* :mod:`repro.service.metrics` — latency histogram and counters behind
  the JSON metrics surface.
* :mod:`repro.service.service` — :class:`QueryService`: the facade
  composing all of the above (cache → admission → engine) and the
  versioned engine holder (epoch counter bumped by every
  answer-affecting mutation, which purges the cache's stale entries;
  readers-writer discipline; atomic engine swap).
* :mod:`repro.service.protocol` — the length-prefixed JSON wire format
  (pure codec, dependency-free).
* :mod:`repro.service.server` — the socket edge: per-connection request
  loop, the single-process threaded :class:`NetworkServer`, and the
  blocking :class:`NetworkClient`.
* :mod:`repro.service.workers` — :class:`ProcessSupervisor`: the
  pre-fork worker pool serving one mmap-shared snapshot path,
  respawning workers that die onto the same path.
* :mod:`repro.service.replication` — WAL-shipping replication:
  :class:`ReplicationPrimary` publishes a durable primary's sealed WAL
  frames over the wire protocol; :class:`ReplicaApplier` bootstraps
  from a shipped checkpoint and replays the stream into its own
  engine for read scale-out.
"""

from repro.core.errors import (
    AdmissionRejected,
    DeadlineExceeded,
    ProtocolError,
    ReplicationError,
    ServiceError,
)
from repro.service.replication import ReplicaApplier, ReplicationPrimary
from repro.service.admission import AdmissionController
from repro.service.cache import ResultCache
from repro.service.metrics import LatencyHistogram, RequestCounters
from repro.service.server import NetworkClient, NetworkServer
from repro.service.service import QueryService
from repro.service.workers import ProcessSupervisor

__all__ = [
    "AdmissionController",
    "AdmissionRejected",
    "DeadlineExceeded",
    "LatencyHistogram",
    "NetworkClient",
    "NetworkServer",
    "ProcessSupervisor",
    "ProtocolError",
    "QueryService",
    "ReplicaApplier",
    "ReplicationError",
    "ReplicationPrimary",
    "RequestCounters",
    "ResultCache",
    "ServiceError",
]
