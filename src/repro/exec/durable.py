"""Crash-safe segmented engine: WAL-logged mutations + checkpoint/recovery.

The segmented engine (:mod:`repro.exec.segments`) keeps its write
buffer, tombstones and segment layout purely in memory between explicit
snapshot saves, so a crash loses every acknowledged mutation since the
last save.  :class:`DurableSegmentedSealSearch` closes that hole with
the standard write-ahead-logging contract:

* **Log before apply.**  Every mutation (``insert``, ``delete``,
  ``flush`` → ``seal``, ``compact``) is appended to the WAL *before* it
  touches the engine.  Once ``append`` returns under the chosen sync
  policy, the operation survives a crash; replay applies it on
  recovery.  (A crash in the tiny window between append and apply can
  make recovery include an operation the caller never saw acknowledged —
  the standard at-least-once edge of logging-before-applying; the
  reverse — an acknowledged operation lost — cannot happen.)  If the
  *apply* raises while the process survives, the appended record is
  rolled back off the log tail, keeping log ≡ engine for the caller
  that just saw the error.
* **Checkpoint = snapshot + log truncation.**  :meth:`checkpoint`
  fsyncs the WAL, records its ``(generation, offset)`` into the
  snapshot envelope, durably saves the snapshot, and only then resets
  the log to ``generation + 1``.  Recovery aligns the two files on that
  pair, so a crash at *any* instant inside the checkpoint leaves a
  recoverable state and replay never double-applies (see
  :mod:`repro.io.wal` for the alignment rule).
* **Recovery is exact.**  :func:`recover` rebuilds ``snapshot + WAL
  tail`` by replaying operations in their original order.  Buffer
  seals, size-tiered merges and weighter-refresh (full compaction)
  points are all deterministic functions of that order, and which
  index a replayed seal or merge builds is a function of the segment's
  size alone (:data:`repro.exec.segments.FULL_INDEX_MIN_OBJECTS` —
  nothing the log or its config record has to carry).  So the
  recovered engine reproduces the pre-crash engine's segment layout,
  per-segment indexes *and* idf-weighter state — its answers are
  pinned identical to the pre-crash engine's, and (via the engine's
  own invariant) to a from-scratch ``build_method`` oracle over the
  live set.  (Segments loaded from a snapshot keep the index they were
  pickled with, whatever rule built it.)

Known loud-failure window: a crash *between the sidecar and snapshot
writes of a checkpoint* leaves the previous snapshot paired with the
new sidecar.  The envelope's array fingerprints reject that pairing, so
recovery raises :class:`~repro.io.snapshot.SnapshotError` rather than
serving wrong arrays — operator intervention (restore the matching
sidecar or rebuild) is required.  Crash injection tests pin both the
exact-recovery points and this loud failure.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Union

from repro.core.engine import accepted_params
from repro.core.errors import ConfigurationError
from repro.exec.segments import SegmentedSealSearch
from repro.geometry import Rect
from repro.io.snapshot import load_engine, save_engine, validate_snapshot
from repro.io.wal import DEFAULT_GROUP_SIZE, WALError, WriteAheadLog, read_wal

PathLike = Union[str, Path]


def engine_from_config(config: Dict, *, source: Any = "stream") -> SegmentedSealSearch:
    """An empty segmented engine matching a WAL/replication config record.

    The one place such a record becomes an engine: a wal-only
    :func:`recover` and a replication replica with no snapshot to ship
    both start from exactly the engine the primary's WAL config record
    describes, then replay the log.

    Args:
        config: The decoded ``config`` record.
        source: A label for error messages (a path or peer name).

    Knobs an older version wrote and this one no longer takes are
    dropped, not refused: ``backend`` (two index stores),
    ``prefix_pruning`` (the plain Sig-Filter) and ``order`` (alternative
    grid cell orders), whose values all answered alike, and a ``planned``
    knob neither rule member takes.

    Raises:
        WALError: If the record names a method or a knob this library
            does not build with — before anything is replayed.
    """
    method = config["method"]
    params = {knob: value for knob, value in (config.get("params") or {}).items()
              if knob not in ("backend", "prefix_pruning", "order")}
    try:
        return SegmentedSealSearch(
            method=method,
            buffer_capacity=config["buffer_capacity"],
            merge_fanout=config["merge_fanout"],
            **(accepted_params(method, params) if method == "planned" else params),
        )
    except ConfigurationError as exc:
        raise WALError(f"{source}: unusable engine-config record: {exc}") from exc


def apply_record(engine: SegmentedSealSearch, payload: Dict, *, source: Any = "stream") -> None:
    """Replay one WAL operation record onto ``engine``.

    Recovery and replication replicas both replay through
    :func:`replay_records`, which lands here, so a streamed apply is
    *bit-identical* to a crash recovery's replay of the same log: oid
    determinism is verified the same way, and an unknown or drifted
    record raises :class:`~repro.io.wal.WALError` loudly (the caller
    re-bootstraps rather than serving wrong answers).

    Args:
        engine: The segmented engine to mutate (the *raw* engine — the
            stream is already a log, so logging again would double it).
        payload: One decoded record (``{"op": ..., ...}``).
        source: A label for error messages (a path or peer name).
    """
    op = payload["op"]
    if op == "insert":
        oid = engine.insert(Rect(*payload["region"]), frozenset(payload["tokens"]))
        if oid != payload["oid"]:
            raise WALError(
                f"{source}: replay drift — insert produced oid {oid} but the log "
                f"recorded oid {payload['oid']}; snapshot and WAL are not from "
                "the same lineage"
            )
    elif op == "delete":
        engine.delete(payload["oid"])
    elif op == "seal":
        engine.flush()
    elif op == "compact":
        engine.compact()
    else:
        raise WALError(f"{source}: unknown WAL operation {op!r}")


def replay_records(
    engine: SegmentedSealSearch, payloads: Iterable[Dict], *, source: Any = "stream"
) -> int:
    """Replay a run of records in order; returns how many applied.

    ``config`` records (a log's self-description) are skipped, matching
    :meth:`repro.io.wal.WALContents.operations` — everything else goes
    through :func:`apply_record`.
    """
    applied = 0
    for payload in payloads:
        if payload.get("op") == "config":
            continue
        apply_record(engine, payload, source=source)
        applied += 1
    return applied


class DurableSegmentedSealSearch:
    """A :class:`SegmentedSealSearch` whose mutations are write-ahead
    logged (see the module docstring for the durability contract).

    Facade-compatible with the wrapped engine: every read-side method
    (``search``, ``search_query``, ``search_batch``, ``object``,
    ``len``, stats/introspection properties) delegates
    untouched, so the wrapper drops into :class:`~repro.service.service.
    QueryService`, :class:`~repro.exec.pipeline.BatchExecutor` (which
    takes a batch through ``search_batch``) and the CLI exactly like the
    raw engine.  Mutations are intercepted and logged first.

    Build one with :meth:`create` (fresh engine + fresh WAL + initial
    checkpoint) or :func:`recover` (reconstruct from disk); the plain
    constructor wraps an engine and an open WAL you already aligned.
    """

    def __init__(
        self,
        engine: SegmentedSealSearch,
        wal: WriteAheadLog,
        *,
        snapshot_path: Optional[PathLike] = None,
        recovery: Optional[Dict] = None,
    ) -> None:
        if not isinstance(engine, SegmentedSealSearch):
            raise WALError(
                f"the durability layer wraps SegmentedSealSearch, got "
                f"{type(engine).__name__}"
            )
        self._engine = engine
        self._wal = wal
        self._snapshot_path = Path(snapshot_path) if snapshot_path is not None else None
        # The sealed (shippable) watermark: log position after the last
        # mutation whose *apply* completed.  Between an append and its
        # apply the log runs ahead of the engine, and an apply failure
        # rolls the record back off the tail — replication must never
        # ship inside that window, or a replica could replay an
        # operation the primary never acknowledged.  One tuple, replaced
        # atomically, so readers on other threads see a consistent pair.
        self._stable = (wal.generation, wal.position)
        #: The :func:`recover` report that produced this engine, or None.
        self.recovery = recovery

    @classmethod
    def create(
        cls,
        data: Iterable[tuple] = (),
        method: str = "seal",
        *,
        wal_path: PathLike,
        snapshot_path: PathLike,
        sync: str = "always",
        group_size: int = DEFAULT_GROUP_SIZE,
        buffer_capacity: "int | None" = 256,
        merge_fanout: int = 4,
        **params,
    ) -> "DurableSegmentedSealSearch":
        """A fresh durable engine, durable from birth.

        Builds the segmented engine over ``data``, creates a generation-0
        WAL (refusing to clobber an existing one), and immediately
        checkpoints — initial data reaches the snapshot rather than the
        log, so the constructor's full-compaction weighter semantics are
        captured exactly and recovery never re-derives them from inserts.
        """
        engine = SegmentedSealSearch(
            data,
            method,
            buffer_capacity=buffer_capacity,
            merge_fanout=merge_fanout,
            **params,
        )
        wal = WriteAheadLog.create(
            wal_path, config=engine.config(), sync=sync, group_size=group_size
        )
        durable = cls(engine, wal, snapshot_path=snapshot_path)
        durable.checkpoint()
        return durable

    # ------------------------------------------------------------------
    # Mutations: log first, then apply
    # ------------------------------------------------------------------

    def _logged(self, record: Dict, apply):
        """Append ``record``, then run ``apply()``.

        If the apply raises while the process is still alive, the
        just-appended record is rolled back off the log tail: the
        operation was never acknowledged, and leaving it would make a
        later crash replay a mutation the live engine never performed
        (silently diverging from every answer served since).  A crash
        *inside* the window keeps the record — replay applies it — the
        documented at-least-once edge.
        """
        offset = self._wal.append(record)
        try:
            result = apply()
        except BaseException:
            self._wal.rollback(offset)
            raise
        self._stable = (self._wal.generation, self._wal.position)
        return result

    def insert(self, region: Rect, tokens: Iterable[str]) -> int:
        """Log then apply one insert; returns the global oid."""
        tokens = frozenset(tokens)
        oid = self._engine.next_oid
        applied = self._logged(
            {
                "op": "insert",
                "oid": oid,
                "region": list(region.as_tuple()),
                "tokens": sorted(tokens),
            },
            lambda: self._engine.insert(region, tokens),
        )
        if applied != oid:  # pragma: no cover - engine invariant
            raise WALError(
                f"engine assigned oid {applied} after logging oid {oid}; "
                "the oid sequence is no longer deterministic"
            )
        return applied

    def delete(self, oid: int) -> bool:
        """Log then apply one delete; returns whether ``oid`` was live.

        Deletes of non-live oids are logged too (the log must be written
        before the liveness answer exists); replaying them is a no-op,
        exactly like the original call.
        """
        return self._logged(
            {"op": "delete", "oid": oid}, lambda: self._engine.delete(oid)
        )

    def flush(self) -> None:
        """Log then apply a buffer seal (merges may cascade, identically
        on replay — sealing is deterministic in the op order)."""
        self._logged({"op": "seal"}, self._engine.flush)

    def compact(self) -> None:
        """Log then apply a full compaction (a weighter-refresh point;
        replay reproduces it at the same position in the op order)."""
        self._logged({"op": "compact"}, self._engine.compact)

    # ------------------------------------------------------------------
    # Checkpoint
    # ------------------------------------------------------------------

    def checkpoint(self, path: Optional[PathLike] = None) -> Path:
        """Durably snapshot the engine and truncate the WAL.

        Ordering is the whole point: (1) fsync the WAL so its
        ``(generation, position)`` names a durable prefix; (2) durably
        save the snapshot carrying that position; (3) only then reset
        the log.  A crash after (2) leaves the old log aligned by
        offset; a crash before it leaves the old snapshot aligned by
        generation — recovery never double-applies either way.

        Answer-preserving by construction (the engine is untouched), so
        the serving layer runs checkpoints under its *shared* lock and
        cached results stay valid.

        Returns the snapshot path written.
        """
        target = Path(path) if path is not None else self._snapshot_path
        if target is None:
            raise WALError(
                "no snapshot path: pass checkpoint(path) or construct the "
                "durable engine with snapshot_path"
            )
        self._wal.sync()
        position = {
            "generation": self._wal.generation,
            "offset": self._wal.position,
        }
        save_engine(self._engine, target, wal_position=position)
        # The fresh log names the checkpoint it continues: recovery only
        # treats a generation+1 WAL as this snapshot's tail when the
        # markers match, so checkpointing a shared WAL against another
        # snapshot path can never silently orphan this one.
        self._wal.reset(parent=position)
        self._stable = (self._wal.generation, self._wal.position)
        self._snapshot_path = target
        return target

    def close(self) -> None:
        """Sync and release the WAL (idempotent).  The engine stays
        queryable; further mutations raise against the closed log."""
        self._wal.close()

    def __enter__(self) -> "DurableSegmentedSealSearch":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Delegation and introspection
    # ------------------------------------------------------------------

    @property
    def engine(self) -> SegmentedSealSearch:
        """The wrapped segmented engine (reads may use it directly)."""
        return self._engine

    @property
    def wal(self) -> WriteAheadLog:
        return self._wal

    @property
    def snapshot_path(self) -> Optional[Path]:
        """Default checkpoint destination (the last one written)."""
        return self._snapshot_path

    @property
    def stable_position(self) -> Dict[str, int]:
        """The sealed ``{"generation", "offset"}`` replication may ship
        through — every record before it was applied and acknowledged
        (never subject to a rollback)."""
        generation, offset = self._stable
        return {"generation": generation, "offset": offset}

    def __len__(self) -> int:
        return len(self._engine)

    def __getattr__(self, name: str) -> Any:
        # Read-side facade: everything not intercepted above delegates to
        # the engine (search paths, stats, manifest, weighter, ...).
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.__dict__["_engine"], name)

    def __getstate__(self):
        raise TypeError(
            "DurableSegmentedSealSearch does not pickle (it owns an open WAL "
            "handle); persist it with checkpoint() and reopen with recover()"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DurableSegmentedSealSearch(live={len(self._engine)}, "
            f"wal={str(self._wal.path)!r}, generation={self._wal.generation}, "
            f"sync={self._wal.sync_policy!r})"
        )


def recover(
    snapshot_path: PathLike,
    wal_path: PathLike,
    *,
    sync: str = "always",
    group_size: int = DEFAULT_GROUP_SIZE,
    mmap: bool = False,
    strict: bool = False,
) -> DurableSegmentedSealSearch:
    """Reconstruct the pre-crash engine from ``snapshot + WAL tail``.

    Alignment (see :mod:`repro.io.wal` for why this is exhaustive):

    * snapshot exists, WAL at the snapshot's generation → replay records
      past the checkpoint offset (the post-snapshot tail);
    * snapshot exists, WAL one generation ahead → the checkpoint's reset
      completed; replay the whole log;
    * no snapshot, WAL at generation 0 → bootstrap an empty engine from
      the WAL's config record and replay everything;
    * anything else — missing snapshot after a checkpoint truncated the
      log, generation gaps, a snapshot without a WAL position, a
      non-segmented snapshot, fsynced bytes missing — fails loudly
      (:class:`~repro.io.wal.WALError` /
      :class:`~repro.io.snapshot.SnapshotError`) instead of guessing.

    A torn tail (crash mid-append) is truncated away and reported in the
    returned engine's ``recovery`` dict; pass ``strict=True`` to fail
    loudly on it instead.

    Args:
        snapshot_path: The checkpoint snapshot (may not exist yet).
        wal_path: The write-ahead log.
        sync: Sync policy for the *reopened* WAL going forward.
        group_size: Group-commit size under ``sync="batch"``.
        mmap: Memory-map the snapshot's array sidecar.
        strict: Refuse torn tails instead of truncating them.

    Returns:
        The recovered durable engine; ``recovery`` holds the replay
        report (``source``, ``records_replayed``, ``generation``,
        ``torn_bytes_dropped``, ``live``).
    """
    snapshot_path = Path(snapshot_path)
    wal_path = Path(wal_path)
    contents = read_wal(wal_path)
    if strict and contents.torn:
        raise WALError(
            f"{wal_path} ends in {contents.trailing_bytes} torn bytes and "
            "strict recovery was requested"
        )
    if snapshot_path.exists():
        source = "snapshot+wal"
        info = validate_snapshot(snapshot_path)
        position = info.get("wal")
        if position is None:
            raise WALError(
                f"snapshot {snapshot_path} was not written by a WAL checkpoint "
                f"(no WAL position in its envelope); cannot align replay of "
                f"{wal_path} — rebuild with the durability layer enabled"
            )
        engine = load_engine(snapshot_path, mmap=mmap)
        if not isinstance(engine, SegmentedSealSearch):
            raise WALError(
                f"snapshot {snapshot_path} holds {type(engine).__name__}, not a "
                "segmented engine; the durability layer cannot replay onto it"
            )
        config = contents.config
        if config is not None and config.get("method") != engine.config()["method"]:
            raise WALError(
                f"WAL {wal_path} logs a {config.get('method')!r} engine but "
                f"snapshot {snapshot_path} holds {engine.config()['method']!r}; "
                "these files are not from the same lineage"
            )
        generation, offset = position["generation"], position["offset"]
        if contents.generation == generation:
            # The checkpoint's reset never completed: skip the prefix the
            # snapshot already holds.  That prefix was fsynced before the
            # snapshot was written, so it must still parse in full.
            if contents.good_end < offset:
                raise WALError(
                    f"{wal_path} is intact only to byte {contents.good_end} but "
                    f"the checkpoint fsynced through byte {offset}; "
                    "acknowledged operations are unrecoverable"
                )
            start = offset
        elif contents.generation == generation + 1:
            # The reset completed — but only this snapshot's own
            # checkpoint may claim it.  A shared WAL checkpointed
            # against a different snapshot path also sits one
            # generation ahead; its parent marker names the *other*
            # checkpoint, and silently replaying the (empty) log here
            # would drop this snapshot's acknowledged tail.
            parent = contents.parent_checkpoint
            if parent != position:
                raise WALError(
                    f"WAL {wal_path} was reset by checkpoint {parent}, not by "
                    f"snapshot {snapshot_path}'s checkpoint {position}; the "
                    "snapshot's post-checkpoint operations were checkpointed "
                    "elsewhere and cannot be replayed from this log"
                )
            start = 0  # post-checkpoint log: everything replays
        else:
            raise WALError(
                f"WAL {wal_path} is at generation {contents.generation} but "
                f"snapshot {snapshot_path} checkpointed generation {generation}; "
                "these files are not from the same lineage"
            )
    else:
        source = "wal-only"
        if contents.generation != 0:
            raise WALError(
                f"snapshot {snapshot_path} is missing but WAL {wal_path} was "
                f"truncated at a checkpoint (generation {contents.generation}); "
                "operations before that checkpoint are unrecoverable"
            )
        config = contents.config
        if config is None:
            raise WALError(
                f"WAL {wal_path} holds no engine-config record and no snapshot "
                "exists; nothing to replay onto"
            )
        engine = engine_from_config(config, source=wal_path)
        start = 0
    replayed = replay_records(
        engine, (record.payload for record in contents.operations(start)), source=wal_path
    )
    # Reuse the scan above: open() would otherwise re-read and re-CRC
    # the whole log just to find the truncation point.
    wal = WriteAheadLog.open(wal_path, sync=sync, group_size=group_size,
                             contents=contents)
    report = {
        "source": source,
        "records_replayed": replayed,
        "generation": contents.generation,
        "torn_bytes_dropped": contents.trailing_bytes,
        "live": len(engine),
    }
    return DurableSegmentedSealSearch(
        engine, wal, snapshot_path=snapshot_path, recovery=report
    )
