"""The versioned engine holder: epochs, guarded reads, atomic hot-swap.

Every engine in this library is safe for concurrent *reads* (PR 2 made
the columnar probe scratch thread-local for exactly that) but none is
safe for a read racing an in-place mutation — a query fanning over a
:class:`~repro.exec.segments.SegmentedSealSearch` must not observe the
write buffer mid-append.  :class:`EngineManager` is the one object that
owns that discipline so the rest of the service never thinks about it:

* **Readers** enter :meth:`reading` and receive an atomic
  ``(engine, epoch)`` pair under a shared lock — any number run
  concurrently;
* **Mutators** (:meth:`insert`, :meth:`delete`, :meth:`compact`,
  :meth:`swap`) take the lock exclusively, apply the change, and bump
  the **epoch** — the version counter the result cache keys on, which
  is what makes cache invalidation structural (see
  :mod:`repro.service.cache`);
* **Hot swap** replaces the engine *reference*: :meth:`load_snapshot`
  pre-validates the snapshot envelope (magic, format, sidecar pairing —
  :func:`repro.io.snapshot.validate_snapshot`) and deserialises the new
  engine entirely *outside* the lock, so traffic keeps flowing during
  the load; only the final reference flip excludes readers.  In-flight
  queries that pinned the old pair complete against the old engine
  object — it stays alive as long as anyone holds it — while every
  request admitted after the flip sees the new engine and a new epoch.

:meth:`flush` bumps the epoch only when it has to: a plain buffer seal
is answer-preserving by the segmented engine's core invariant (same
live set, same weighter), so cached results stay valid and the cache
stays warm through background maintenance — but a seal that cascades
into a full compaction (refreshing the idf weighter) is detected via
the engine's ``compactions`` counter and bumps like any other
answer-affecting mutation.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, List, Tuple

from repro.core.errors import ServiceError
from repro.exec.durable import recover as recover_durable_engine
from repro.geometry import Rect
from repro.io.snapshot import load_engine, validate_snapshot


class _ReadWriteLock:
    """A writer-preferring readers-writer lock.

    Readers share; a writer excludes everyone.  Arriving writers block
    *new* readers (writer preference), so a steady query stream cannot
    starve a mutation or a snapshot swap indefinitely.  The last reader
    out notifies only when a writer is waiting for it.
    """

    __slots__ = ("_cond", "_readers", "_writer_active", "_writers_waiting")

    def __init__(self) -> None:
        self._cond = threading.Condition(threading.Lock())
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if not self._readers and self._writers_waiting:
                self._cond.notify_all()

    @contextmanager
    def writing(self) -> Iterator[None]:
        with self._cond:
            self._writers_waiting += 1
            while self._writer_active or self._readers:
                self._cond.wait()
            self._writers_waiting -= 1
            self._writer_active = True
        try:
            yield
        finally:
            with self._cond:
                self._writer_active = False
                self._cond.notify_all()


class _Reading:
    """The context :meth:`EngineManager.reading` returns: the shared lock
    held from ``__enter__``, which answers the ``(engine, epoch)`` pair,
    to ``__exit__``.  One per read, so the manager never refers back to
    it: a reference cycle would keep a dropped manager's engine alive
    until the collector's next full pass."""

    __slots__ = ("_manager",)

    def __init__(self, manager: "EngineManager") -> None:
        self._manager = manager

    def __enter__(self) -> Tuple[Any, int]:
        manager = self._manager
        manager._lock.acquire_read()
        return manager._current

    def __exit__(self, *exc_info) -> None:
        self._manager._lock.release_read()


class EngineManager:
    """Owns one engine reference plus its monotonically increasing epoch.

    Wraps *any* engine the library builds — :class:`~repro.core.engine.
    SealSearch`, :class:`~repro.exec.segments.SegmentedSealSearch`, or a
    bare :class:`~repro.core.method.SearchMethod`.  Update methods delegate to
    the engine when it supports them and raise a clear
    :class:`~repro.core.errors.ServiceError` when it does not.

    Args:
        engine: The initial engine (epoch 0).
        on_epoch_bump: Called with the new epoch after every bump, while
            the write lock is still held — the service hooks its cache's
            eager stale-entry purge here.  Further listeners attach via
            :meth:`add_epoch_listener`.
    """

    def __init__(
        self,
        engine: Any,
        *,
        on_epoch_bump: Callable[[int], None] | None = None,
    ) -> None:
        self._lock = _ReadWriteLock()
        # Serializes checkpoints against each other without excluding
        # readers (a checkpoint is answer-preserving; see checkpoint()).
        self._checkpoint_lock = threading.Lock()
        self._current: Tuple[Any, int] = (engine, 0)
        self._epoch_listeners: List[Callable[[int], None]] = []
        if on_epoch_bump is not None:
            self._epoch_listeners.append(on_epoch_bump)

    def add_epoch_listener(self, listener: Callable[[int], None]) -> None:
        """Register a callable invoked with each new epoch after a bump."""
        self._epoch_listeners.append(listener)

    def remove_epoch_listener(self, listener: Callable[[int], None]) -> None:
        """Detach a listener (no-op if absent) — services call this on
        close so a long-lived shared manager never accumulates dead
        caches to notify under the write lock."""
        try:
            self._epoch_listeners.remove(listener)
        except ValueError:
            pass

    @property
    def epoch(self) -> int:
        """The current engine version (reads are atomic under the GIL)."""
        return self._current[1]

    @property
    def engine(self) -> Any:
        """The current engine reference (unguarded peek; use
        :meth:`reading` when you will actually query it)."""
        return self._current[0]

    @property
    def current(self) -> Tuple[Any, int]:
        """An atomic ``(engine, epoch)`` pair — consistent because the
        tuple is replaced as one reference, never mutated.  For
        observability reads; use :meth:`reading` to actually query."""
        return self._current

    def reading(self) -> _Reading:
        """Shared-lock access to an atomic ``(engine, epoch)`` pair.

        Hold it for the duration of one query: in-place mutators and
        swaps wait for the lock, so the engine cannot change underneath.
        """
        return _Reading(self)

    # ------------------------------------------------------------------
    # Mutation (exclusive lock; every answer-affecting change bumps)
    # ------------------------------------------------------------------

    def _bump(self, engine: Any) -> int:
        epoch = self._current[1] + 1
        self._current = (engine, epoch)
        for listener in self._epoch_listeners:
            listener(epoch)
        return epoch

    def _updatable(self, name: str) -> Callable:
        engine = self._current[0]
        op = getattr(engine, name, None)
        if op is None:
            raise ServiceError(
                f"{type(engine).__name__} does not support in-place {name}; "
                "serve a segmented engine (build --segmented) for updates"
            )
        return op

    def insert(self, region: Rect, tokens: Iterable[str]) -> int:
        """Insert one object into the live engine; bumps the epoch."""
        with self._lock.writing():
            oid = self._updatable("insert")(region, tokens)
            self._bump(self._current[0])
            return oid

    def insert_many(self, pairs: Iterable[Tuple[Rect, Iterable[str]]]) -> List[int]:
        """Insert a batch under one exclusive section and a single bump.

        If an insert raises mid-batch the earlier ones are already live
        in the engine, so the bump still happens — otherwise cached
        answers from before the batch would keep being served against a
        corpus that has visibly changed.
        """
        with self._lock.writing():
            insert = self._updatable("insert")
            oids: List[int] = []
            try:
                for region, tokens in pairs:
                    oids.append(insert(region, tokens))
            finally:
                if oids:
                    self._bump(self._current[0])
            return oids

    def delete(self, oid: int) -> bool:
        """Tombstone one object; bumps the epoch only if it was live."""
        with self._lock.writing():
            deleted = self._updatable("delete")(oid)
            if deleted:
                self._bump(self._current[0])
            return deleted

    def compact(self) -> None:
        """Fully compact the engine; bumps (idf refresh can change answers)."""
        with self._lock.writing():
            self._updatable("compact")()
            self._bump(self._current[0])

    def apply(self, mutator: Callable[[Any], Any]) -> Any:
        """Run an arbitrary engine mutation under the exclusive lock.

        The generic mutation primitive the typed methods above are
        special cases of: ``mutator(engine)`` runs with every reader
        excluded, and the epoch bumps afterwards — even when the mutator
        raises partway, for the same reason :meth:`insert_many` bumps on
        a partial batch (the engine may have visibly changed).  The
        replication applier replays whole shipped WAL batches through
        one ``apply`` call, so replicas pay one epoch bump (one cache
        purge) per shipment rather than per record.

        Returns whatever ``mutator`` returns.
        """
        with self._lock.writing():
            try:
                return mutator(self._current[0])
            finally:
                self._bump(self._current[0])

    def flush(self) -> None:
        """Seal the engine's write buffer; bumps only if answers may move.

        A plain seal is answer-preserving (same live set, same weighter)
        so the cache stays warm.  But a seal can *cascade*: size-tiered
        merging may collapse every segment into one, which is a full
        compaction point that refreshes the idf weighter — and refreshed
        weights can change answers.  The engine's ``compactions``
        counter detects exactly that, and we bump iff it moved (or the
        engine doesn't expose it, where the conservative bump is free
        correctness).
        """
        with self._lock.writing():
            engine = self._current[0]
            flush = self._updatable("flush")
            before = getattr(engine, "compactions", None)
            flush()
            if before is None or getattr(engine, "compactions", None) != before:
                self._bump(engine)

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    def checkpoint(self, path=None):
        """Durable WAL checkpoint of the live engine (durable engines only).

        Runs under the *shared* lock: a checkpoint never changes answers
        (the live set and weighter are untouched), so queries keep
        flowing while the snapshot writes; mutators wait — exactly the
        exclusion the snapshot pickling needs (the save cannot run
        off-lock: serialising an engine a mutator is changing would
        corrupt the snapshot).  Honest caveat on a *mixed* workload:
        the RW lock is writer-preferring, so a mutator arriving mid-
        checkpoint queues new readers behind it until the checkpoint's
        disk write finishes — pure-read traffic is unaffected.
        Concurrent checkpoints (and recoveries) serialize on a
        dedicated mutex.  The epoch does not move, by the same argument
        that keeps plain ``flush`` bump-free: cached results stay valid
        across a checkpoint.

        Returns the snapshot path written.

        Raises:
            ServiceError: The engine has no ``checkpoint`` (it is not
                wrapped by the durability layer).
        """
        with self._checkpoint_lock:
            with self.reading() as (engine, _):
                op = getattr(engine, "checkpoint", None)
                if op is None:
                    raise ServiceError(
                        f"{type(engine).__name__} does not support checkpoint; "
                        "serve a durable engine (build --wal / recover()) for "
                        "WAL checkpoints"
                    )
                return op(path) if path is not None else op()

    def recover(self, snapshot_path, wal_path, *, mmap: bool = False,
                sync: str = "always") -> int:
        """Hot-swap to the engine recovered from ``snapshot + WAL tail``.

        Replay runs entirely *off-lock* — traffic keeps flowing on the
        old engine, and a recovery failure (torn snapshot, misaligned
        WAL) raises loudly while the old engine keeps serving, exactly
        like :meth:`load_snapshot`.  The final reference flip bumps the
        epoch, so every cached pre-recovery answer is invalidated by
        construction.

        Refused when the *live* engine still owns an open appender on
        the same WAL file: recovery would open a second writer whose
        appends land at a stale offset, overwriting records the live
        engine already fsync-acknowledged.  Checkpoint or close the
        live engine first.  Recoveries serialize with each other (and
        with checkpoints) on the checkpoint mutex, and the guard is
        re-validated under the write lock at the reference flip — a
        concurrent ``swap`` installing a durable engine on the same
        WAL mid-replay is caught there, not just at entry.

        Returns the new epoch.
        """

        def guard() -> None:
            live_wal = getattr(self._current[0], "wal", None)
            if (
                live_wal is not None
                and not getattr(live_wal, "closed", True)
                and Path(wal_path).resolve() == Path(live_wal.path).resolve()
            ):
                raise ServiceError(
                    f"the live engine still holds an open appender on {wal_path}; "
                    "recovering from it would put two writers on one log — "
                    "checkpoint or close the live engine first"
                )

        with self._checkpoint_lock:
            guard()  # fail fast before paying for the replay
            engine = recover_durable_engine(
                snapshot_path, wal_path, mmap=mmap, sync=sync
            )
            with self._lock.writing():
                try:
                    guard()  # re-validate: a swap may have raced the replay
                except ServiceError:
                    engine.close()  # release the just-opened appender
                    raise
                return self._bump(engine)

    # ------------------------------------------------------------------
    # Hot swap
    # ------------------------------------------------------------------

    def swap(self, engine: Any) -> int:
        """Atomically replace the engine reference; returns the new epoch.

        In-flight readers keep the old engine object (alive while they
        hold it); readers admitted after the swap see the new one.
        """
        with self._lock.writing():
            return self._bump(engine)

    def load_snapshot(self, path, *, mmap: bool = False) -> int:
        """Hot-swap to an engine snapshot, pre-validated, loaded off-lock.

        The envelope (magic, :data:`~repro.io.snapshot.SNAPSHOT_FORMAT`,
        sidecar pairing) is validated *before* anything is deserialised
        and the engine blob loads entirely outside the lock — a bad or
        stale snapshot raises :class:`~repro.io.snapshot.SnapshotError`
        while the old engine keeps serving, untouched.  (The explicit
        pre-gate costs one extra envelope read per swap — deliberate:
        swaps are rare, and rejecting before the deserialiser ever runs
        is the operational contract this method documents.)

        Returns the new epoch.
        """
        validate_snapshot(path)
        engine = load_engine(path, mmap=mmap)
        return self.swap(engine)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        engine, epoch = self._current
        return f"EngineManager(engine={type(engine).__name__}, epoch={epoch})"
