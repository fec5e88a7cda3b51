"""Write-ahead log: append-only, length-prefixed, checksummed records.

The segmented engine buffers inserts in memory and tombstones deletes
lazily, so everything since the last snapshot save dies with the
process.  The WAL closes that window the way every storage engine does:
each mutation is appended (and, per the sync policy, fsynced) *before*
it is applied, and recovery replays ``snapshot + WAL tail`` to
reconstruct exactly the pre-crash engine (see
:mod:`repro.exec.durable`).

**On-disk layout.**  A fixed header followed by a flat record stream::

    header : magic (8 bytes) | format u32 | generation u64     = 20 bytes
    record : payload-length u32 | crc32(payload) u32 | payload

Payloads are canonical JSON objects (sorted keys, no whitespace) with an
``"op"`` field.  The first record is always a ``config`` record carrying
the engine's constructor knobs, so a WAL is self-describing: recovery
can bootstrap an equivalent empty engine even when the snapshot file is
gone (possible only while ``generation == 0`` — see below).

**Generations and checkpoints.**  ``generation`` counts checkpoints.  A
checkpoint captures ``(generation, position)`` into the snapshot
envelope *before* :meth:`WriteAheadLog.reset` truncates the log to a
fresh header at ``generation + 1``.  Recovery aligns the two files by
that pair: same generation → replay from the recorded offset (the reset
never happened — nothing to double-apply); generation exactly one ahead
→ replay the whole log (the reset happened — the log holds only
post-checkpoint records); anything else → the files are not from the
same lineage and recovery fails loudly.

**Torn tails.**  A crash mid-append leaves a partial frame: a short
header, a short payload, or a checksum mismatch.  :func:`read_wal` stops
at the first invalid record and reports the dropped byte count;
:meth:`WriteAheadLog.open` truncates that tail away before appending
(appending after garbage would corrupt the log for the *next* reader).
Records behind a sync barrier — everything the chosen policy fsynced —
always parse, so an acknowledged-durable operation is never dropped.  A
checksum failure *before* the last sync barrier means fsynced data was
lost; the alignment checks in :mod:`repro.exec.durable` surface that as
a loud error rather than a silent truncation.

**Sync policies** (the durability/throughput dial):

* ``always`` — fsync after every append.  An operation is durable the
  moment ``append`` returns; one fsync per mutation.
* ``batch``  — group commit: fsync every ``group_size`` appends and on
  every explicit :meth:`sync` (checkpoints and close force one).  The
  classic throughput trade — a crash can lose at most the last
  unsynced group of *acknowledged-to-caller-but-unsynced* operations.
* ``none``   — never fsync on append (the OS flushes on its schedule);
  only checkpoints, :meth:`sync` and :meth:`close` force durability.

The appender is single-writer by design (the service serializes
mutations behind the :class:`~repro.service.service.QueryService`
write lock); an internal lock still guards it so misuse degrades to
serialization, not corruption.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.errors import SealError
from repro.io.atomic import atomic_write_bytes

#: Bump when the WAL header or frame layout changes incompatibly.
WAL_FORMAT = 1

#: Sync policies accepted by :class:`WriteAheadLog` (see module docs).
SYNC_POLICIES = ("always", "batch", "none")

#: Appends per fsync under the ``batch`` (group commit) policy.
DEFAULT_GROUP_SIZE = 32

_MAGIC = b"SEALWAL\x00"
_HEADER = struct.Struct("<8sIQ")  # magic, format, generation
_FRAME = struct.Struct("<II")  # payload byte length, crc32(payload)

#: Fixed header size in bytes — the offset of the first record frame.
#: Replication lineage markers count bytes from the start of the file,
#: so a freshly reset log's position is exactly this.
HEADER_SIZE = _HEADER.size


class WALError(SealError, RuntimeError):
    """A WAL file is missing, corrupt beyond its torn tail, or
    misaligned with its checkpoint snapshot."""


class WALLineageError(WALError):
    """A reader asked for a generation the log no longer is.

    Raised by :meth:`WALCursor.read_from` when the file's header names a
    different generation than the caller's lineage marker — the writer
    checkpointed (and :meth:`WriteAheadLog.reset`) since the caller last
    read.  Carries enough for the caller to decide whether it can adopt
    the new generation (it was exactly at the parent checkpoint) or must
    re-bootstrap from a snapshot.
    """

    def __init__(self, message: str, *, generation: int, parent: Optional[Dict]) -> None:
        super().__init__(message)
        #: The generation the file is at *now*.
        self.generation = generation
        #: The ``{"generation", "offset"}`` checkpoint whose reset
        #: produced the current log (``None`` for a generation-0 log).
        self.parent = dict(parent) if parent else None


@dataclass(frozen=True)
class WALRecord:
    """One decoded record plus the byte offset of its frame."""

    offset: int
    payload: Dict


@dataclass(frozen=True)
class WALContents:
    """A fully scanned WAL: every intact record plus tail accounting."""

    path: Path
    generation: int
    records: List[WALRecord]
    #: Byte offset just past the last intact record.
    good_end: int
    #: Torn/corrupt bytes past ``good_end`` (0 on a clean log).
    trailing_bytes: int

    @property
    def torn(self) -> bool:
        return self.trailing_bytes > 0

    @property
    def config(self) -> Optional[Dict]:
        """The engine-config record, when present (always first)."""
        if self.records and self.records[0].payload.get("op") == "config":
            return self.records[0].payload
        return None

    @property
    def parent_checkpoint(self) -> Optional[Dict]:
        """The ``(generation, offset)`` of the checkpoint whose reset
        created this log, or ``None`` for a generation-0 log.

        Recovery matches this against the snapshot's recorded position:
        a WAL one generation ahead of a snapshot is only that
        snapshot's post-checkpoint tail if the *same* checkpoint reset
        it — without the marker, a snapshot orphaned by checkpointing
        its shared WAL to another path would silently replay as empty.
        """
        config = self.config
        return config.get("checkpoint") if config else None

    def operations(self, start: int = 0) -> List[WALRecord]:
        """Non-config records whose frames start at or after ``start``."""
        return [
            record
            for record in self.records
            if record.offset >= start and record.payload.get("op") != "config"
        ]


def _encode(record: Dict) -> bytes:
    if not isinstance(record, dict) or "op" not in record:
        raise WALError(f"WAL records are dicts with an 'op' field, got {record!r}")
    return json.dumps(record, separators=(",", ":"), sort_keys=True).encode("utf-8")


def _frame(payload: bytes) -> bytes:
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def _check_header(header: bytes, path: Path) -> int:
    """Validate a file's first :data:`HEADER_SIZE` bytes; returns the
    generation they name."""
    if len(header) < _HEADER.size:
        raise WALError(f"{path} is too short to hold a WAL header")
    magic, fmt, generation = _HEADER.unpack(header)
    if magic != _MAGIC:
        raise WALError(f"{path} is not a repro WAL file")
    if fmt != WAL_FORMAT:
        raise WALError(
            f"{path} uses WAL format {fmt}, this library reads format {WAL_FORMAT}"
        )
    return generation


def _scan_frames(
    data: bytes,
    *,
    base: int,
    where: str,
    max_bytes: Optional[int] = None,
) -> Tuple[List[WALRecord], int, Optional[str]]:
    """The one frame reader: decode the run of intact records at the
    front of ``data`` (bytes that sit at file offset ``base``).

    Returns ``(records, end, stopped)``.  ``end`` is the position in
    ``data`` just past the last intact frame, and ``stopped`` is why the
    run ended there: ``None`` (the bytes ran out on a frame boundary, or
    ``end`` reached ``max_bytes``), ``"header"`` (fewer bytes than a
    frame header remain), ``"payload"`` (the frame claims more payload
    than remains) or ``"checksum"`` (the payload fails its CRC).  What a
    stop *means* — a torn tail, a writer mid-append, a corrupt shipment,
    a reader off the frame grid — is each caller's policy.

    Raises:
        WALError: A checksummed payload does not decode to an operation
            object (a writer bug, never a torn write — the checksum
            proves the bytes are exactly what was written); ``where``
            names the source in the message.
    """
    records: List[WALRecord] = []
    position = 0
    while position < len(data):
        if position + _FRAME.size > len(data):
            return records, position, "header"
        length, crc = _FRAME.unpack_from(data, position)
        start, end = position + _FRAME.size, position + _FRAME.size + length
        if end > len(data):
            return records, position, "payload"
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            return records, position, "checksum"
        try:
            decoded = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise WALError(
                f"{where} {base + position} is checksummed but does not "
                f"decode ({exc}); this is writer corruption, not a torn write"
            ) from exc
        if not isinstance(decoded, dict) or "op" not in decoded:
            raise WALError(f"{where} {base + position} is not an operation object")
        records.append(WALRecord(offset=base + position, payload=decoded))
        position = end
        if max_bytes is not None and position >= max_bytes:
            break
    return records, position, None


def read_wal(path: Union[str, Path]) -> WALContents:
    """Scan a WAL into records, tolerating (and measuring) a torn tail:
    the scan stops at the first frame that is short or fails its
    checksum, and nothing past that point is trusted.

    Raises:
        WALError: The file is missing, too short for a header, carries
            the wrong magic or format, or holds a checksummed record
            that does not decode.
    """
    path = Path(path)
    if not path.exists():
        raise WALError(f"WAL not found: {path}")
    with path.open("rb") as handle:
        generation = _check_header(handle.read(_HEADER.size), path)
        body = handle.read()
    records, end, _ = _scan_frames(
        body, base=_HEADER.size, where=f"{path}: record at offset"
    )
    return WALContents(
        path=path,
        generation=generation,
        records=records,
        good_end=_HEADER.size + end,
        trailing_bytes=len(body) - end,
    )


@dataclass(frozen=True)
class WALShipment:
    """A contiguous run of intact frames cut from a live log.

    ``data`` is the exact on-disk bytes of the frames spanning
    ``[start, end)`` — shippable verbatim, so a receiver re-verifies the
    same length-prefixed CRC framing the writer produced
    (:func:`decode_frames`) and inherits the writer's byte offsets as
    its lineage marker.
    """

    generation: int
    #: Byte offset of the first shipped frame.
    start: int
    #: Byte offset one past the last shipped frame (the new lineage
    #: offset a receiver advances to after applying).
    end: int
    data: bytes
    records: List[WALRecord]

    def __len__(self) -> int:
        return len(self.records)


#: What each way a shipped run can stop short means to its receiver.
_SHIPMENT_FAULTS = {
    "header": "shipped frames end mid-header at byte {at}",
    "payload": "shipped frame at byte {at} is truncated",
    "checksum": "shipped frame at byte {at} fails its checksum",
}


def decode_frames(data: bytes, *, base_offset: int = 0) -> List[WALRecord]:
    """Decode a shipped run of frames, verifying every checksum.

    Unlike :func:`read_wal` there is no torn-tail tolerance: a shipment
    is a claim of exact bytes, so a short frame, a checksum mismatch or
    an undecodable payload is corruption-in-transit (or a divergent
    cut) and raises loudly.  Record offsets are absolute
    (``base_offset`` + position within ``data``), matching the sender's
    file offsets.

    Raises:
        WALError: Any byte of ``data`` fails to parse as intact frames.
    """
    records, end, stopped = _scan_frames(
        data, base=base_offset, where="shipped frame at byte"
    )
    if stopped is not None:
        raise WALError(_SHIPMENT_FAULTS[stopped].format(at=base_offset + end))
    return records


class WALCursor:
    """A tailing reader over a (possibly live) WAL file.

    The replication primary holds one per log and answers each fetch by
    cutting the intact frames past the caller's ``(generation, offset)``
    lineage marker.  The cursor is stateless between calls — every read
    re-validates the header — so it tolerates the writer resetting the
    file underneath it (checkpoint): that surfaces as
    :class:`WALLineageError` instead of garbage.

    A reader may race the single writer's in-progress append; the
    buffered frame bytes reach the OS in one ``write`` + ``flush``, but
    a cursor that still lands mid-frame simply stops the shipment at
    the last complete frame (an incomplete tail is "nothing new yet",
    never an error).  A checksum mismatch at a frame boundary, by
    contrast, means the requested offset is not on this log's frame
    grid — a divergent reader — and raises.
    """

    #: Default per-read byte cap: comfortably under the wire protocol's
    #: 8 MiB frame limit after base64 expansion (×4/3) plus envelope.
    DEFAULT_MAX_BYTES = 4 * 1024 * 1024

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    def _parent_checkpoint(self, handle) -> Optional[Dict]:
        """The current log's parent-checkpoint marker (first record), or
        ``None`` when that record is absent, incomplete or no config."""
        handle.seek(_HEADER.size)
        first = handle.read(_FRAME.size)
        if len(first) == _FRAME.size:
            first += handle.read(_FRAME.unpack(first)[0])
        try:
            records, _, _ = _scan_frames(
                first, base=_HEADER.size, where=f"{self.path}: record at offset"
            )
        except WALError:
            return None
        if records and records[0].payload["op"] == "config":
            parent = records[0].payload.get("checkpoint")
            return dict(parent) if isinstance(parent, dict) else None
        return None

    def read_from(
        self,
        generation: int,
        offset: int,
        *,
        max_bytes: int = DEFAULT_MAX_BYTES,
        end: Optional[int] = None,
    ) -> WALShipment:
        """Cut the intact frames in ``[offset, offset + max_bytes]``.

        Always ships at least one frame when an intact one exists at
        ``offset``, even if it alone exceeds ``max_bytes`` — a shipment
        must make progress or the tail would wedge behind one large
        record.

        ``end`` caps the cut at an exclusive byte bound (a frame
        boundary the caller knows to be sealed — e.g. the durable
        engine's stable watermark, past which a record may still be
        rolled back).  An ``offset`` at or past ``end`` ships empty.

        Raises:
            WALLineageError: The file is now at a different generation
                (the writer checkpointed); carries the new generation
                and its parent-checkpoint marker.
            WALError: The file is missing/garbled, ``offset`` is outside
                the log, or the bytes at ``offset`` are not a frame
                boundary (a divergent reader).
        """
        if offset < _HEADER.size:
            raise WALError(
                f"WAL offset {offset} is inside the header "
                f"(records start at {_HEADER.size})"
            )
        try:
            handle = self.path.open("rb")
        except OSError as exc:
            raise WALError(f"cannot read WAL {self.path}: {exc}") from exc
        with handle:
            current = _check_header(handle.read(_HEADER.size), self.path)
            if current != generation:
                parent = self._parent_checkpoint(handle)
                raise WALLineageError(
                    f"{self.path} is at generation {current}, reader asked for "
                    f"{generation} (the writer checkpointed since)",
                    generation=current,
                    parent=parent,
                )
            handle.seek(0, os.SEEK_END)
            size = handle.tell()
            if offset > size:
                raise WALError(
                    f"WAL offset {offset} is past the end of {self.path} "
                    f"({size} bytes) — divergent reader"
                )
            limit = size if end is None else min(size, end)
            if offset >= limit:
                return WALShipment(
                    generation=generation, start=offset, end=offset,
                    data=b"", records=[],
                )
            handle.seek(offset)
            # Over-read by one frame header so the cut never ends on a
            # frame we cannot even measure (but never past ``limit``,
            # whose bound is a frame boundary by contract).
            data = handle.read(min(max_bytes + _FRAME.size, limit - offset))
            if limit - offset < _FRAME.size:
                if end is not None:
                    # ``end`` is a sealed frame boundary by contract, yet
                    # fewer bytes than a frame header sit before it: the
                    # offset cannot be on the grid.
                    raise WALError(
                        f"{self.path}: offset {offset} leaves no room for a "
                        f"frame before the sealed bound {limit} — not on "
                        "this log's frame grid"
                    )
            else:
                first_length = _FRAME.unpack_from(data, 0)[0]
                first_end = _FRAME.size + first_length
                if first_end > len(data):
                    if offset + first_end <= limit:
                        # One frame may alone exceed the cap: widen the
                        # read to cover it whole, or a large record would
                        # wedge every shipment at this offset forever.
                        handle.seek(offset)
                        data = handle.read(first_end)
                    elif end is not None:
                        # The claimed frame overruns the sealed bound: a
                        # misaligned offset read garbage as a length.
                        raise WALError(
                            f"{self.path}: the frame at offset {offset} "
                            f"claims {first_length} payload bytes, past the "
                            f"sealed bound {limit} — not on this log's "
                            "frame grid"
                        )
        # A short frame at the end of the read is the writer mid-append
        # (or the byte cap): nothing more yet.
        records, cut, stopped = _scan_frames(
            data,
            base=offset,
            where=f"{self.path}: record at offset",
            max_bytes=max_bytes,
        )
        if stopped == "checksum":
            # First frame failing means the offset is not a frame
            # boundary (divergent reader); a mid-run mismatch after
            # good frames is on-disk corruption.  Both are loud —
            # the reader must re-bootstrap, not skip bytes.
            raise WALError(
                f"{self.path}: bytes at offset {offset + cut} fail "
                "their frame checksum — not on this log's frame grid"
            )
        return WALShipment(
            generation=generation,
            start=offset,
            end=offset + cut,
            data=bytes(data[:cut]),
            records=records,
        )


class WriteAheadLog:
    """The single-writer appender (see the module docstring for format,
    generations and sync-policy semantics).

    Construct via :meth:`create` (fresh log, refuses to overwrite) or
    :meth:`open` (existing log; truncates any torn tail first).  Exposes
    ``appends`` and ``syncs`` counters so tests and the overhead bench
    can observe the group-commit behavior directly.
    """

    def __init__(
        self,
        path: Path,
        handle,
        *,
        generation: int,
        position: int,
        sync: str,
        group_size: int,
        config: Optional[Dict],
    ) -> None:
        self.path = Path(path)
        self._handle = handle
        self._generation = generation
        self._position = position
        self._sync_policy = sync
        self._group_size = group_size
        self._config = dict(config) if config else None
        self._lock = threading.Lock()
        self._pending = 0
        self._closed = False
        self.appends = 0
        self.syncs = 0

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @staticmethod
    def _check_options(sync: str, group_size: int) -> None:
        if sync not in SYNC_POLICIES:
            raise WALError(f"unknown WAL sync policy {sync!r}; use one of {SYNC_POLICIES}")
        if group_size < 1:
            raise WALError("WAL group_size must be a positive int")

    @classmethod
    def create(
        cls,
        path: Union[str, Path],
        *,
        config: Dict,
        sync: str = "always",
        group_size: int = DEFAULT_GROUP_SIZE,
    ) -> "WriteAheadLog":
        """A fresh generation-0 WAL holding only the config record.

        Refuses an existing path: silently restarting a log that may
        hold unreplayed operations is exactly the data loss a WAL
        exists to prevent — recover it or remove it explicitly.
        """
        cls._check_options(sync, group_size)
        path = Path(path)
        if path.exists():
            raise WALError(
                f"refusing to overwrite existing WAL {path}; recover it first "
                "or remove it explicitly"
            )
        cls._write_fresh(path, generation=0, config=config)
        handle = path.open("r+b")
        handle.seek(0, os.SEEK_END)
        return cls(
            path, handle, generation=0, position=handle.tell(),
            sync=sync, group_size=group_size, config=config,
        )

    @classmethod
    def open(
        cls,
        path: Union[str, Path],
        *,
        sync: str = "always",
        group_size: int = DEFAULT_GROUP_SIZE,
        contents: Optional[WALContents] = None,
    ) -> "WriteAheadLog":
        """Open an existing WAL for appending.

        Any torn tail is truncated away (and fsynced) first: appending
        after garbage would hide valid-looking records behind an invalid
        one and corrupt the log for the next reader.  A caller that
        already scanned the file (recovery) passes its ``contents`` to
        skip the second full read + checksum pass.
        """
        cls._check_options(sync, group_size)
        if contents is None:
            contents = read_wal(path)
        path = Path(path)
        handle = path.open("r+b")
        try:
            if contents.trailing_bytes:
                handle.truncate(contents.good_end)
                handle.flush()
                os.fsync(handle.fileno())
            handle.seek(contents.good_end)
        except BaseException:
            handle.close()
            raise
        config = contents.config
        if config is not None:
            config = {
                key: value
                for key, value in config.items()
                if key not in ("op", "checkpoint")
            }
        return cls(
            path, handle, generation=contents.generation, position=contents.good_end,
            sync=sync, group_size=group_size, config=config,
        )

    @staticmethod
    def _write_fresh(
        path: Path,
        *,
        generation: int,
        config: Optional[Dict],
        parent: Optional[Dict] = None,
    ) -> None:
        """Durably (re)place ``path`` with a header + config record.

        ``parent`` is the checkpoint ``(generation, offset)`` whose
        reset produced this log (see ``WALContents.parent_checkpoint``).
        """
        blob = _HEADER.pack(_MAGIC, WAL_FORMAT, generation)
        if config is not None:
            record = dict(config, op="config")
            if parent is not None:
                record["checkpoint"] = dict(parent)
            blob += _frame(_encode(record))
        atomic_write_bytes(path, blob)

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def append(self, record: Dict) -> int:
        """Append one operation record; returns its frame's byte offset.

        Durability on return is governed by the sync policy; the bytes
        always reach the OS (``flush``) so a same-machine reader — or a
        post-crash recovery, minus unsynced pages — sees them.
        """
        frame = _frame(_encode(record))
        with self._lock:
            self._ensure_open()
            offset = self._position
            self._handle.write(frame)
            self._position += len(frame)
            self.appends += 1
            self._pending += 1
            if self._sync_policy == "always" or (
                self._sync_policy == "batch" and self._pending >= self._group_size
            ):
                self._fsync_locked()
            else:
                self._handle.flush()
        return offset

    def sync(self) -> None:
        """Force pending appends to the device (a group-commit barrier)."""
        with self._lock:
            self._ensure_open()
            if self._pending:
                self._fsync_locked()

    def rollback(self, offset: int) -> None:
        """Truncate the log back to ``offset`` — the compensation for a
        mutation whose *apply* failed after its append succeeded.

        Without this, a surviving process whose engine rejected an
        operation would keep serving answers that diverge from what a
        post-crash replay reconstructs.  Only the tail may be rolled
        back (``offset`` must be a frame boundary at or past the
        header, before the current position); the truncation is fsynced
        so the removed record cannot resurface after a crash.
        """
        with self._lock:
            self._ensure_open()
            if not _HEADER.size <= offset <= self._position:
                raise WALError(
                    f"cannot roll {self.path} back to byte {offset} "
                    f"(log spans {_HEADER.size}..{self._position})"
                )
            self._handle.flush()
            self._handle.truncate(offset)
            self._handle.seek(offset)
            os.fsync(self._handle.fileno())
            self.syncs += 1
            self._position = offset
            self._pending = 0

    def _fsync_locked(self) -> None:
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self.syncs += 1
        self._pending = 0

    def _ensure_open(self) -> None:
        if self._closed:
            raise WALError(f"WAL {self.path} is closed")

    # ------------------------------------------------------------------
    # Checkpoint support and lifecycle
    # ------------------------------------------------------------------

    def reset(self, *, parent: Optional[Dict] = None) -> int:
        """Truncate to a fresh header at ``generation + 1``.

        Called by the checkpoint *after* the snapshot (which recorded
        the pre-reset ``(generation, position)``) is durably on disk —
        the replacement is itself durable (temp + fsync + rename +
        directory fsync), so a crash at any instant leaves either the
        old full log or the new empty one, never a hybrid.  The caller
        passes the checkpoint position as ``parent`` so the fresh log
        names the exact checkpoint it continues (the lineage marker
        recovery matches against the snapshot).

        The old handle is swapped only after the replacement file is
        durably in place: a failure mid-reset (disk full, permissions)
        leaves the appender open on the intact old log, not half-closed.
        Returns the new generation.
        """
        with self._lock:
            self._ensure_open()
            generation = self._generation + 1
            self._write_fresh(
                self.path, generation=generation, config=self._config, parent=parent
            )
            old_handle = self._handle
            try:
                self._handle = self.path.open("r+b")
            except BaseException:
                # The name now points at the fresh log but we cannot
                # append to it; mark the appender unusable (close() is
                # then a no-op) rather than half-open.
                self._closed = True
                old_handle.close()
                raise
            old_handle.close()
            self._generation = generation
            self._handle.seek(0, os.SEEK_END)
            self._position = self._handle.tell()
            self._pending = 0
            return generation

    def close(self) -> None:
        """Sync pending appends and release the handle (idempotent)."""
        with self._lock:
            if self._closed:
                return
            if self._pending:
                self._fsync_locked()
            self._handle.close()
            self._closed = True

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def position(self) -> int:
        """Byte offset one past the last appended record."""
        return self._position

    @property
    def generation(self) -> int:
        return self._generation

    @property
    def sync_policy(self) -> str:
        return self._sync_policy

    @property
    def config(self) -> Optional[Dict]:
        """The engine-config record this log carries (a copy)."""
        return dict(self._config) if self._config else None

    @property
    def closed(self) -> bool:
        return self._closed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WriteAheadLog(path={str(self.path)!r}, generation={self._generation}, "
            f"position={self._position}, sync={self._sync_policy!r})"
        )
