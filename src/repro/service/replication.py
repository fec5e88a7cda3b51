"""WAL-shipping replication: one durable primary, N read replicas.

The write-ahead log (:mod:`repro.io.wal`) already *is* a replication
log: every acknowledged mutation is a checksummed frame, replay is
deterministic (segment layout and idf-weighter refresh points are pure
functions of the op order, the index a segment gets a pure function of
its size — :mod:`repro.exec.durable` pins that), and a
checkpoint names an exact ``(generation, offset)`` cut.  This module
ships those frames over the PR 6 wire protocol so read traffic scales
across machines while writes stay on one primary::

    writers ──> primary DurableSegmentedSealSearch ── WAL ──┐
                    │ NetworkServer (+ReplicationPrimary)   │
                    │        repl-subscribe/-fetch/-snapshot│
         ┌──────────┴──────────┬───────────────────────────┐
         ▼                     ▼                           ▼
    ReplicaApplier        ReplicaApplier              ReplicaApplier
    (replay + serve)      (replay + serve)            (replay + serve)

**Lineage.**  A replica's entire state is summarised by the primary
lineage marker ``(generation, offset)`` — "I have applied every sealed
record of WAL generation G through byte O".  Every fetch sends it, and
the primary answers with the raw frame bytes past it (re-verified
CRC-by-CRC on arrival via :func:`repro.io.wal.decode_frames`), so the
replica inherits the primary's own byte offsets as its clock.

**Bootstrap.**  A fresh replica subscribes, downloads the primary's
checkpoint snapshot (chunked, with its embedded WAL position),
loads it, and starts fetching from that position.  A primary that has
never checkpointed but still owns its complete generation-0 log instead
ships its WAL config record and the replica replays from an empty
engine — exactly the two recovery paths of :func:`repro.exec.durable.
recover`, over the wire.

**Divergence.**  The contract is *fail loudly, re-bootstrap, never
serve wrong answers*: a lineage the primary's log cannot serve (the
primary checkpointed past it), a frame failing its checksum, or replay
drift (an insert reproducing a different oid) raises
:class:`~repro.core.errors.ReplicationError`; the applier's run loop
answers every such error by discarding its engine and re-bootstrapping
from the primary's snapshot.  The one *aligned* generation change — a
replica sitting exactly at the checkpoint cut when the primary resets
its log — adopts the new generation in place, no re-bootstrap.

**Crash safety.**  A replica periodically checkpoints its engine to its
own state directory with the *primary's* lineage in the envelope
(``replica.pkl``) and mirrors its status into a ``REPLICA`` JSON file.
A SIGKILLed replica resumes from that local snapshot and re-fetches the
records it lost — records since the last local checkpoint are re-shipped
by the primary, not lost (unless the primary checkpointed past them,
which is the re-bootstrap path again).
"""

from __future__ import annotations

import json
import logging
import os
import socket
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.core.errors import ProtocolError, ReplicationError, SealError
from repro.exec.durable import (
    DurableSegmentedSealSearch,
    engine_from_config,
    replay_records,
)
from repro.io.atomic import atomic_write_bytes, atomic_write_text
from repro.io.snapshot import (
    SnapshotError,
    load_engine,
    save_engine,
    sidecar_path,
    validate_snapshot,
)
from repro.io.wal import HEADER_SIZE, WALCursor, WALError, WALLineageError, decode_frames
from repro.service.protocol import (
    REPL_FETCH,
    REPL_SNAPSHOT,
    REPL_SUBSCRIBE,
    bytes_from_wire,
    bytes_to_wire,
)
from repro.service.server import NetworkClient
from repro.service.service import QueryService

PathLike = Union[str, Path]

_LOG = logging.getLogger(__name__)

#: Seconds a caught-up replica sleeps between fetch polls.
DEFAULT_POLL_SECONDS = 0.05

#: Per-fetch byte cap on shipped WAL frames (pre-base64).
DEFAULT_MAX_BATCH_BYTES = WALCursor.DEFAULT_MAX_BYTES

#: Per-response byte cap on shipped snapshot chunks (pre-base64).
SNAPSHOT_CHUNK_BYTES = 2 * 1024 * 1024

#: Applied records between a replica's local checkpoints.
DEFAULT_CHECKPOINT_RECORDS = 1024

#: The replica state directory's status file (atomic JSON mirror of
#: :meth:`ReplicaApplier.status`, for ``inspect --json`` and operators).
REPLICA_STATUS_NAME = "REPLICA"

#: The replica's local checkpoint snapshot inside its state directory.
REPLICA_SNAPSHOT_NAME = "replica.pkl"


def _require_int(request: Dict[str, Any], name: str) -> int:
    value = request.get(name)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ProtocolError(f"'{name}' must be an integer")
    return value


# ----------------------------------------------------------------------
# Primary side: the publisher behind repl-* ops
# ----------------------------------------------------------------------


class ReplicationPrimary:
    """The primary's replication publisher.

    Attach one to the serving :class:`~repro.service.service.
    QueryService` (``service.replication = primary`` — the server
    prefix-routes every ``repl-*`` op here) over a
    :class:`~repro.exec.durable.DurableSegmentedSealSearch`.  The
    publisher is read-only with respect to the engine: it cuts sealed
    frames off the live WAL file with a :class:`~repro.io.wal.WALCursor`
    and never blocks the write path.

    Shipping is pull-based — replicas poll ``repl-fetch`` with their
    lineage, which doubles as the acknowledgement (the primary tracks
    each replica's applied position for :meth:`status`).  That keeps the
    lockstep request/response protocol untouched: no server push, no
    pipelining, any client that can speak a JSON frame can replicate.

    Args:
        engine: The durable engine whose WAL is the replication log.
        max_batch_bytes: Frame bytes per fetch response (pre-base64).
    """

    def __init__(
        self,
        engine: DurableSegmentedSealSearch,
        *,
        max_batch_bytes: int = DEFAULT_MAX_BATCH_BYTES,
    ) -> None:
        if not isinstance(engine, DurableSegmentedSealSearch):
            raise ReplicationError(
                "replication needs a durable primary (its WAL is the "
                f"replication log); got {type(engine).__name__}"
            )
        self._durable = engine
        self._cursor = WALCursor(engine.wal.path)
        self._max_batch_bytes = max_batch_bytes
        self._lock = threading.Lock()
        self._replicas: Dict[str, Dict[str, Any]] = {}
        self.shipments = 0
        self.records_shipped = 0

    # -- op handlers ----------------------------------------------------

    def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Route one ``repl-*`` request; returns the ok-payload."""
        op = request.get("op")
        if op == REPL_SUBSCRIBE:
            return self._subscribe(request)
        if op == REPL_FETCH:
            return self._fetch(request)
        if op == REPL_SNAPSHOT:
            return self._snapshot(request)
        raise ProtocolError(f"unknown replication op {op!r}")

    def _note(self, replica: Any, applied: Any) -> None:
        if not isinstance(replica, str) or not replica:
            raise ProtocolError("'replica' must be a non-empty string id")
        # repro-lint: disable=replay-determinism -- monitoring timestamp in the primary's replica table; never shipped or replayed
        entry = {"last_seen": time.time()}
        if (
            isinstance(applied, (list, tuple))
            and len(applied) == 2
            and all(isinstance(v, int) and not isinstance(v, bool) for v in applied)
        ):
            entry["applied"] = [applied[0], applied[1]]
        with self._lock:
            record = self._replicas.setdefault(replica, {"fetches": 0})
            record.update(entry)
            record["fetches"] += 1

    def _subscribe(self, request: Dict[str, Any]) -> Dict[str, Any]:
        self._note(request.get("replica"), request.get("applied"))
        stable = self._durable.stable_position
        snapshot_info: Optional[Dict[str, Any]] = None
        path = self._durable.snapshot_path
        if path is not None and path.exists():
            info = validate_snapshot(path)
            sidecar = sidecar_path(path)
            snapshot_info = {
                "size": path.stat().st_size,
                "sidecar_size": sidecar.stat().st_size if sidecar.exists() else 0,
                "wal": info.get("wal"),
            }
        return {
            "replication": {
                "stable": stable,
                "config": self._durable.wal.config,
                "snapshot": snapshot_info,
            }
        }

    def _fetch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        self._note(request.get("replica"), request.get("applied"))
        generation = _require_int(request, "generation")
        offset = _require_int(request, "offset")
        max_bytes = self._max_batch_bytes
        if request.get("max_bytes") is not None:
            # A replica may ask for smaller shipments (memory-bound
            # appliers, deterministic tests); the primary's own cap
            # still bounds the response.
            asked = _require_int(request, "max_bytes")
            if asked < 1:
                raise ProtocolError("'max_bytes' must be a positive integer")
            max_bytes = min(max_bytes, asked)
        stable = self._durable.stable_position
        try:
            if generation == stable["generation"]:
                shipment = self._cursor.read_from(
                    generation,
                    offset,
                    max_bytes=max_bytes,
                    end=stable["offset"],
                )
            else:
                # Not the sealed generation: let the cursor classify —
                # a file at another generation raises the lineage error
                # that becomes the resync answer below; a transient
                # mid-checkpoint read ships nothing, which is safe.
                shipment = self._cursor.read_from(generation, offset, end=offset)
        except WALLineageError as exc:
            return {
                "replication": {
                    "resync": {"generation": exc.generation, "parent": exc.parent},
                    "position": self._durable.stable_position,
                }
            }
        except WALError as exc:
            # Divergent offset (not on the frame grid / past the log):
            # loud error frame; the replica re-bootstraps.
            raise ReplicationError(str(exc)) from exc
        with self._lock:
            self.shipments += 1
            self.records_shipped += len(shipment)
        return {
            "replication": {
                "generation": shipment.generation,
                "start": shipment.start,
                "end": shipment.end,
                "count": len(shipment),
                "frames": bytes_to_wire(shipment.data),
                "position": stable,
            }
        }

    def _snapshot(self, request: Dict[str, Any]) -> Dict[str, Any]:
        which = request.get("file")
        if which not in ("snapshot", "sidecar"):
            raise ProtocolError("'file' must be 'snapshot' or 'sidecar'")
        offset = _require_int(request, "offset")
        if offset < 0:
            raise ProtocolError("'offset' must be >= 0")
        path = self._durable.snapshot_path
        if path is None or not path.exists():
            raise ReplicationError(
                "the primary has no checkpoint snapshot to ship; "
                "checkpoint() it first (or bootstrap from its generation-0 log)"
            )
        target = path if which == "snapshot" else sidecar_path(path)
        if not target.exists():
            # An engine without a posting store has no sidecar; ship it as empty.
            return {
                "replication": {
                    "file": which, "offset": 0, "size": 0, "eof": True,
                    "data": bytes_to_wire(b""),
                }
            }
        size = target.stat().st_size
        with target.open("rb") as handle:
            handle.seek(offset)
            data = handle.read(SNAPSHOT_CHUNK_BYTES)
        return {
            "replication": {
                "file": which,
                "offset": offset,
                "size": size,
                "eof": offset + len(data) >= size,
                "data": bytes_to_wire(data),
            }
        }

    # -- observability --------------------------------------------------

    def status(self) -> Dict[str, Any]:
        """The primary's replication block for the metrics document:
        sealed position, shipment counters, and each subscribed
        replica's acknowledged lineage plus byte lag."""
        stable = self._durable.stable_position
        with self._lock:
            replicas: Dict[str, Any] = {}
            for name, entry in self._replicas.items():
                applied = entry.get("applied")
                lag = None
                if applied is not None and applied[0] == stable["generation"]:
                    lag = max(0, stable["offset"] - applied[1])
                replicas[name] = {
                    "applied": applied,
                    "lag_bytes": lag,
                    "fetches": entry.get("fetches", 0),
                    "last_seen": entry.get("last_seen"),
                }
            return {
                "role": "primary",
                "position": stable,
                "shipments": self.shipments,
                "records_shipped": self.records_shipped,
                "replicas": replicas,
            }


# ----------------------------------------------------------------------
# Replica side: bootstrap, tail, apply, survive crashes
# ----------------------------------------------------------------------


class ReplicaApplier:
    """A read replica: bootstraps from the primary, tails its WAL, and
    replays every shipped record into a local segmented engine.

    The applier owns the :class:`~repro.service.service.QueryService`
    that serves its engine (:attr:`service`; hand it to a
    :class:`~repro.service.server.NetworkServer`), so reads run off the
    same versioned engine while the apply thread mutates it — each
    shipped batch applies under one exclusive section and one epoch
    bump.  Call :meth:`start` to bootstrap synchronously (loudly) and
    begin tailing in a daemon thread; :meth:`step` drives one
    fetch+apply round for deterministic tests.

    Args:
        host/port: The primary's ``NetworkServer`` address.
        root: Replica state directory (local checkpoint + status file).
        replica_id: Stable identity sent with every request (defaults to
            ``host-pid-uuid``; reuse one to keep primary-side lag
            attribution stable across restarts).
        poll_interval: Sleep between fetches while caught up.
        checkpoint_records: Applied records between local checkpoints
            (``None`` disables periodic checkpoints; :meth:`stop` still
            takes a final one).
        max_batch_bytes: Fetch size hint passed to the primary.
        mmap: Memory-map the bootstrap snapshot's sidecar.
        timeout: Socket timeout for primary RPCs.
        service_config: Keyword arguments for the replica's
            :class:`~repro.service.service.QueryService` (cache knobs,
            admission limits, …).  Defaults to the service defaults.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        root: PathLike,
        replica_id: Optional[str] = None,
        poll_interval: float = DEFAULT_POLL_SECONDS,
        checkpoint_records: Optional[int] = DEFAULT_CHECKPOINT_RECORDS,
        max_batch_bytes: int = DEFAULT_MAX_BATCH_BYTES,
        mmap: bool = False,
        timeout: float = 30.0,
        service_config: Optional[Dict[str, Any]] = None,
    ) -> None:
        self._host = host
        self._port = port
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        self.replica_id = replica_id or (
            # repro-lint: disable=replay-determinism -- replica *identity* (subscription key), generated once per process; not replayed state
            f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        )
        self._poll_interval = poll_interval
        self._checkpoint_records = checkpoint_records
        self._max_batch_bytes = max_batch_bytes
        self._mmap = mmap
        self._timeout = timeout
        self._service_config = dict(service_config or {})
        self._client: Optional[NetworkClient] = None
        self._service: Optional[QueryService] = None
        self._lineage: Optional[Tuple[int, int]] = None
        self._primary_position: Optional[Dict[str, int]] = None
        self._since_checkpoint = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.applied_records = 0
        self.shipments = 0
        self.bootstraps = 0
        self.source: Optional[str] = None
        self.last_error: Optional[str] = None

    # -- wiring ---------------------------------------------------------

    @property
    def root(self) -> Path:
        return self._root

    @property
    def service(self) -> QueryService:
        """The service over the replica's engine; available once
        bootstrapped."""
        if self._service is None:
            raise ReplicationError(
                "replica has no engine yet; start() or bootstrap() first"
            )
        return self._service

    @property
    def lineage(self) -> Optional[Tuple[int, int]]:
        """The applied primary ``(generation, offset)`` marker."""
        return self._lineage

    def generation(self) -> Optional[int]:
        """The upstream generation for the server's serving identity."""
        return self._lineage[0] if self._lineage is not None else None

    def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Replicas do not re-publish: chained replication would need
        its own lineage namespace, so a ``repl-*`` op here is a loud
        misdirection error, not a silent empty stream."""
        raise ReplicationError(
            f"this server is a replica of {self._host}:{self._port}; "
            "subscribe to the primary, not to a replica"
        )

    def _rpc(self, request: Dict[str, Any]) -> Dict[str, Any]:
        if self._client is None:
            self._client = NetworkClient(
                self._host, self._port, timeout=self._timeout
            )
        payload = self._client.call(dict(request, replica=self.replica_id))
        body = payload.get("replication")
        if not isinstance(body, dict):
            raise ProtocolError("replication response carried no payload object")
        return body

    def _disconnect(self) -> None:
        if self._client is not None:
            try:
                self._client.close()
            finally:
                self._client = None

    # -- bootstrap ------------------------------------------------------

    @property
    def snapshot_file(self) -> Path:
        return self._root / REPLICA_SNAPSHOT_NAME

    @property
    def status_file(self) -> Path:
        return self._root / REPLICA_STATUS_NAME

    def _install(self, engine: Any, lineage: Tuple[int, int], source: str) -> None:
        if self._service is None:
            self._service = QueryService(engine, **self._service_config)
        else:
            self._service.swap_engine(engine)
        self._lineage = lineage
        self._since_checkpoint = 0
        self.source = source

    def resume(self) -> bool:
        """Resume from the local checkpoint if one loads; returns
        whether it did.  A torn or unpaired local snapshot (crash mid-
        checkpoint) is discarded — the caller bootstraps instead."""
        path = self.snapshot_file
        if not path.exists():
            return False
        try:
            info = validate_snapshot(path)
            position = info.get("wal")
            if position is None:
                return False
            engine = load_engine(path, mmap=self._mmap)
        except (SnapshotError, SealError, OSError):
            return False
        self._install(
            engine, (position["generation"], position["offset"]), "resumed"
        )
        self._write_status()
        return True

    def _download(self, which: str, size_hint: int) -> bytes:
        chunks = []
        offset = 0
        while True:
            body = self._rpc({"op": REPL_SNAPSHOT, "file": which, "offset": offset})
            data = bytes_from_wire(body.get("data"))
            chunks.append(data)
            offset += len(data)
            if body.get("eof") or not data:
                break
            if offset > max(size_hint, 0) + 64 * 1024 * 1024:
                raise ReplicationError(
                    f"snapshot {which} download exceeded its advertised size "
                    "by 64 MiB; aborting bootstrap"
                )
        return b"".join(chunks)

    def bootstrap(self) -> None:
        """(Re-)install a fresh engine from the primary.

        Prefers checkpoint shipping: download the snapshot (sidecar
        first, then the envelope — the load pairs them by fingerprint,
        so a half-download can never validate), install it, and adopt
        its embedded WAL position as lineage.  A primary that never
        checkpointed ships its config record instead and the replica
        replays the complete generation-0 log from an empty engine.
        """
        sub = self._rpc({"op": REPL_SUBSCRIBE, "applied": self._applied_field()})
        snapshot_info = sub.get("snapshot")
        if snapshot_info:
            sidecar_bytes = self._download(
                "sidecar", snapshot_info.get("sidecar_size", 0)
            )
            snapshot_bytes = self._download("snapshot", snapshot_info.get("size", 0))
            local_sidecar = sidecar_path(self.snapshot_file)
            if sidecar_bytes:
                atomic_write_bytes(local_sidecar, sidecar_bytes)
            elif local_sidecar.exists():
                # A stale sidecar from an earlier bootstrap would pair
                # (and fail fingerprints) against the fresh envelope.
                local_sidecar.unlink()
            atomic_write_bytes(self.snapshot_file, snapshot_bytes)
            info = validate_snapshot(self.snapshot_file)
            position = info.get("wal")
            if position is None:
                raise ReplicationError(
                    "the shipped snapshot carries no WAL position; the primary "
                    "is not replicating a durable engine"
                )
            engine = load_engine(self.snapshot_file, mmap=self._mmap)
            lineage = (position["generation"], position["offset"])
            source = "snapshot"
        else:
            stable = sub.get("stable") or {}
            config = sub.get("config")
            if config is None or stable.get("generation") != 0:
                raise ReplicationError(
                    "cannot bootstrap: the primary has no snapshot to ship and "
                    "its log is past generation 0 (records before its last "
                    "checkpoint are gone) — checkpoint the primary"
                )
            engine = engine_from_config(config, source=f"primary {self._host}:{self._port}")
            lineage = (0, HEADER_SIZE)
            source = "config"
        self.bootstraps += 1
        self._install(engine, lineage, source)
        if source == "config":
            # Persist the empty starting point so a crash before the
            # first periodic checkpoint resumes instead of re-fetching
            # a bootstrap the primary may no longer be able to serve.
            self.checkpoint_local()
        self._write_status()

    def _applied_field(self):
        return list(self._lineage) if self._lineage is not None else None

    # -- the tail loop --------------------------------------------------

    def step(self) -> int:
        """One fetch+apply round; returns the records applied.

        Raises:
            ReplicationError: Divergence — the caller (the run loop)
                must re-bootstrap.
            ProtocolError / OSError: The connection failed; reconnect
                and retry at the same lineage.
        """
        if self._lineage is None:
            raise ReplicationError("replica has no lineage; bootstrap() first")
        generation, offset = self._lineage
        body = self._rpc(
            {
                "op": REPL_FETCH,
                "generation": generation,
                "offset": offset,
                "max_bytes": self._max_batch_bytes,
                "applied": self._applied_field(),
            }
        )
        resync = body.get("resync")
        if resync is not None:
            parent = resync.get("parent") or {}
            if (
                parent.get("generation") == generation
                and parent.get("offset") == offset
            ):
                # Aligned generation change: we sat exactly at the
                # checkpoint cut when the primary reset its log.  Adopt
                # the fresh log from its header — nothing to re-apply.
                self._lineage = (resync["generation"], HEADER_SIZE)
                self.checkpoint_local()
                self._write_status()
                return 0
            raise ReplicationError(
                f"primary checkpointed to generation {resync.get('generation')} "
                f"past this replica's lineage ({generation}, {offset}); "
                "re-bootstrap required"
            )
        if body.get("start") != offset or body.get("generation") != generation:
            raise ReplicationError(
                f"primary answered a shipment at {body.get('generation')}/"
                f"{body.get('start')} for a fetch at {generation}/{offset}"
            )
        frames = bytes_from_wire(body.get("frames"))
        end = _require_int(body, "end")
        if end != offset + len(frames):
            # The primary ships whole frames from ``offset``: any other
            # end would skip (or re-read) bytes no frame accounts for.
            raise ReplicationError(
                f"primary shipped {len(frames)} bytes at {generation}/{offset} "
                f"but claims they end at {end}"
            )
        try:
            records = decode_frames(frames, base_offset=offset)
        except WALError as exc:
            raise ReplicationError(str(exc)) from exc
        if records:
            payloads = [record.payload for record in records]
            source = f"{self._host}:{self._port}"
            try:
                applied = self.service.apply(
                    lambda engine: replay_records(engine, payloads, source=source)
                )
            except SealError as exc:
                # Replay drift: the engine may be half-mutated — only a
                # re-bootstrap restores a trustworthy state.
                raise ReplicationError(str(exc)) from exc
            self.applied_records += applied
            self._since_checkpoint += applied
        self.shipments += 1
        self._lineage = (generation, end)
        position = body.get("position")
        if isinstance(position, dict):
            self._primary_position = position
        if (
            self._checkpoint_records is not None
            and self._since_checkpoint >= self._checkpoint_records
        ):
            self.checkpoint_local()
        if records:  # a caught-up poll leaves the status file alone
            self._write_status()
        return len(records)

    def catch_up(self, *, timeout: float = 30.0) -> int:
        """Fetch until the replica reports zero lag; returns records
        applied.  Raises :class:`ReplicationError` on timeout."""
        # repro-lint: disable=replay-determinism -- pacing clock for the catch-up timeout; bounds waiting, never enters replayed state
        deadline = time.monotonic() + timeout
        total = 0
        while True:
            total += self.step()
            if self.lag_bytes() == 0:
                return total
            # repro-lint: disable=replay-determinism -- pacing clock, see deadline above
            if time.monotonic() > deadline:
                raise ReplicationError(
                    f"replica failed to catch up within {timeout}s "
                    f"(lag {self.lag_bytes()} bytes)"
                )

    def run(self) -> None:
        """The applier thread body: tail forever, heal loudly.

        Connection losses reconnect with backoff at the same lineage;
        divergence errors re-bootstrap; both are counted and surfaced
        in :meth:`status` rather than swallowed silently.
        """
        backoff = self._poll_interval
        while not self._stop.is_set():
            try:
                if self._service is None and not self.resume():
                    self.bootstrap()
                applied = self.step()
                self.last_error = None
                backoff = self._poll_interval
                if applied == 0:
                    self._stop.wait(self._poll_interval)
            except (ProtocolError, OSError) as exc:
                self.last_error = f"{type(exc).__name__}: {exc}"
                self._disconnect()
                self._stop.wait(backoff)
                backoff = min(backoff * 2, 2.0)
            except SealError as exc:
                self.last_error = f"{type(exc).__name__}: {exc}"
                self._rebootstrap()
                self._stop.wait(backoff)

    def _rebootstrap(self) -> None:
        """After divergence the installed engine is untrustworthy:
        forget it so the next loop iteration re-bootstraps (the service
        survives — serving layers keep their reference — only the
        engine is replaced)."""
        self._lineage = None
        try:
            self.bootstrap()
        # repro-lint: disable=error-transport -- applier self-heal boundary: the thread must survive to retry, failure is surfaced via status; unexpected kinds are logged with traceback
        except Exception as exc:  # noqa: BLE001
            if not isinstance(exc, (OSError, SealError)):
                _LOG.exception(
                    "unexpected %s during replica re-bootstrap", type(exc).__name__
                )
            self.last_error = f"{type(exc).__name__}: {exc}"
            self._disconnect()

    def start(self) -> "ReplicaApplier":
        """Bootstrap (or resume) synchronously — loud on failure — then
        tail the primary in a daemon thread (idempotent)."""
        if self._thread is None or not self._thread.is_alive():
            if self._service is None and not self.resume():
                self.bootstrap()
            self._stop.clear()
            self._thread = threading.Thread(
                target=self.run, name="seal-replica-applier", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop tailing, take a final local checkpoint, disconnect."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        if self._service is not None and self._lineage is not None:
            self.checkpoint_local()
            self._write_status()
        self._disconnect()

    def __enter__(self) -> "ReplicaApplier":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- local durability and observability -----------------------------

    def checkpoint_local(self) -> Path:
        """Snapshot the replica engine with the *primary's* lineage in
        the envelope — the resume point a SIGKILLed replica restarts
        from.  Runs under the shared read lock: the applier thread is
        the only mutator, so excluding it is all that is needed."""
        generation, offset = self._lineage  # type: ignore[misc]
        with self.service.reading() as (engine, _epoch):
            save_engine(
                engine,
                self.snapshot_file,
                wal_position={"generation": generation, "offset": offset},
            )
        self._since_checkpoint = 0
        return self.snapshot_file

    def lag_bytes(self) -> Optional[int]:
        """Bytes of sealed primary log not yet applied (``None`` before
        the first fetch or across an unadopted generation change)."""
        if self._lineage is None or self._primary_position is None:
            return None
        generation, offset = self._lineage
        if self._primary_position.get("generation") != generation:
            return None
        return max(0, self._primary_position["offset"] - offset)

    def status(self) -> Dict[str, Any]:
        """The replica's replication block for metrics/inspect."""
        lineage = self._lineage
        return {
            "role": "replica",
            "replica": self.replica_id,
            "primary": f"{self._host}:{self._port}",
            "generation": lineage[0] if lineage else None,
            "offset": lineage[1] if lineage else None,
            "primary_position": self._primary_position,
            "lag_bytes": self.lag_bytes(),
            "applied_records": self.applied_records,
            "shipments": self.shipments,
            "bootstraps": self.bootstraps,
            "source": self.source,
            "last_error": self.last_error,
        }

    def _write_status(self) -> None:
        # repro-lint: disable=replay-determinism -- operator-facing freshness stamp in the status file; not replayed state
        document = dict(self.status(), updated=time.time())
        atomic_write_text(
            self.status_file, json.dumps(document, indent=2) + "\n"
        )


def read_replica_status(root: PathLike) -> Optional[Dict[str, Any]]:
    """The ``REPLICA`` status document of a replica state directory, or
    ``None`` when the directory isn't one (no file / undecodable)."""
    path = Path(root) / REPLICA_STATUS_NAME
    if not path.exists():
        return None
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    return document if isinstance(document, dict) else None
