"""Tests for the versioned engine manager: epochs, locking, hot-swap.

Pins the serving layer's version contract: every answer-affecting
mutation bumps the epoch exactly once, answer-preserving maintenance
does not, and a snapshot hot-swap pre-validates before it displaces a
live engine — with in-flight readers finishing on the engine they
pinned.
"""

from __future__ import annotations

import gc
import threading
import time
import weakref

import pytest

from repro import (
    Query,
    Rect,
    SealSearch,
    SegmentedSealSearch,
    ServiceError,
)
from repro.io import save_engine
from repro.io.snapshot import SnapshotError, sidecar_path, validate_snapshot
from repro.service import EngineManager


def make_segmented(n: int = 6) -> SegmentedSealSearch:
    return SegmentedSealSearch(
        [(Rect(i, 0, i + 1, 1), {"a", f"t{i}"}) for i in range(n)],
        method="token",
        buffer_capacity=4,
    )


QUERY = Query(Rect(0, 0, 50, 1), frozenset({"a"}), 0.01, 0.0)


class TestEpochs:
    def test_starts_at_zero(self):
        manager = EngineManager(make_segmented())
        assert manager.epoch == 0

    def test_insert_bumps(self):
        manager = EngineManager(make_segmented())
        manager.insert(Rect(20, 0, 21, 1), {"a"})
        assert manager.epoch == 1

    def test_insert_many_bumps_once(self):
        manager = EngineManager(make_segmented())
        oids = manager.insert_many([(Rect(20, 0, 21, 1), {"a"}), (Rect(22, 0, 23, 1), {"a"})])
        assert len(oids) == 2
        assert manager.epoch == 1
        assert manager.insert_many([]) == []
        assert manager.epoch == 1  # empty batch: no bump

    def test_insert_many_bumps_even_when_a_later_insert_fails(self):
        """Partially-applied batches changed the corpus, so the epoch
        must still move — else old cache entries would keep serving."""
        manager = EngineManager(make_segmented())
        with pytest.raises(TypeError):
            manager.insert_many([(Rect(20, 0, 21, 1), {"a"}), (Rect(22, 0, 23, 1), None)])
        assert manager.epoch == 1  # the successful insert is live

    def test_delete_bumps_only_when_live(self):
        manager = EngineManager(make_segmented())
        assert manager.delete(0) is True
        assert manager.epoch == 1
        assert manager.delete(0) is False  # already dead: answers unchanged
        assert manager.epoch == 1

    def test_compact_bumps(self):
        manager = EngineManager(make_segmented())
        manager.compact()
        assert manager.epoch == 1

    def test_flush_preserves_answers_and_does_not_bump(self):
        engine = make_segmented(6)  # buffer_capacity 4: 6 initial → sealed, then 2 pending
        manager = EngineManager(engine)
        manager.insert(Rect(30, 0, 31, 1), {"a"})
        manager.insert(Rect(32, 0, 33, 1), {"a"})
        epoch = manager.epoch
        compactions = engine.compactions
        with manager.reading() as (live, _):
            before = live.search_query(QUERY).answers
        manager.flush()
        assert engine.compactions == compactions  # a plain seal, no cascade
        assert manager.epoch == epoch
        assert engine.pending == 0
        with manager.reading() as (live, _):
            assert live.search_query(QUERY).answers == before

    def test_flush_that_cascades_into_full_compaction_bumps(self):
        """A seal can trigger a merge-all, which refreshes the idf
        weighter — answers may change, so the epoch must move (the
        stale-cache bug the medium review caught)."""
        engine = SegmentedSealSearch(
            [(Rect(i, 0, i + 1, 1), {"a", f"t{i}"}) for i in range(4)],
            method="token",
            buffer_capacity=None,  # manual sealing: flush() does the cascade
            merge_fanout=2,
        )
        manager = EngineManager(engine)
        for i in range(4):  # stale weights + a same-tier segment pending
            manager.insert(Rect(10 + i, 0, 11 + i, 1), {"a", f"x{i}"})
        epoch = manager.epoch
        compactions = engine.compactions
        manager.flush()  # seals → two same-tier segments → merge-all → compaction
        assert engine.compactions == compactions + 1
        assert manager.epoch == epoch + 1

    def test_flush_on_engine_without_compaction_counter_bumps(self):
        class OpaqueUpdatable:
            def flush(self):
                pass

        manager = EngineManager(OpaqueUpdatable())
        manager.flush()  # cannot prove answer preservation: bump
        assert manager.epoch == 1

    def test_epoch_listeners_fire_on_every_bump(self):
        seen = []
        manager = EngineManager(make_segmented(), on_epoch_bump=seen.append)
        manager.add_epoch_listener(lambda epoch: seen.append(-epoch))
        manager.insert(Rect(20, 0, 21, 1), {"a"})
        manager.compact()
        assert seen == [1, -1, 2, -2]

    def test_remove_epoch_listener_detaches(self):
        seen = []
        manager = EngineManager(make_segmented())
        manager.add_epoch_listener(seen.append)
        manager.insert(Rect(20, 0, 21, 1), {"a"})
        manager.remove_epoch_listener(seen.append)
        manager.remove_epoch_listener(seen.append)  # absent: no-op
        manager.insert(Rect(22, 0, 23, 1), {"a"})
        assert seen == [1]

    def test_current_is_an_atomic_pair(self):
        manager = EngineManager(make_segmented())
        engine, epoch = manager.current
        assert engine is manager.engine and epoch == 0
        manager.insert(Rect(20, 0, 21, 1), {"a"})
        assert manager.current == (engine, 1)

    def test_non_updatable_engine_raises_service_error(self):
        manager = EngineManager(SealSearch([(Rect(0, 0, 1, 1), {"a"})], method="token"))
        with pytest.raises(ServiceError, match="does not support in-place insert"):
            manager.insert(Rect(0, 0, 1, 1), {"b"})
        with pytest.raises(ServiceError, match="segmented"):
            manager.delete(0)
        assert manager.epoch == 0


class TestHotSwap:
    def test_swap_replaces_engine_and_bumps(self):
        old = make_segmented(3)
        new = make_segmented(8)
        manager = EngineManager(old)
        assert manager.swap(new) == 1
        assert manager.engine is new

    def test_load_snapshot_swaps_to_saved_engine(self, tmp_path):
        manager = EngineManager(make_segmented(3))
        bigger = make_segmented(9)
        path = tmp_path / "next.pkl"
        save_engine(bigger, path)
        epoch = manager.load_snapshot(path)
        assert epoch == 1
        with manager.reading() as (engine, _):
            assert len(engine) == 9

    def test_bad_snapshot_rejected_before_swap(self, tmp_path):
        old = make_segmented(3)
        manager = EngineManager(old)
        path = tmp_path / "corrupt.pkl"
        path.write_bytes(b"not a snapshot at all")
        with pytest.raises(SnapshotError):
            manager.load_snapshot(path)
        # The live engine was never displaced and the epoch never moved.
        assert manager.engine is old
        assert manager.epoch == 0

    def test_snapshot_of_a_removed_class_refused_before_swap(self, tmp_path):
        """A well-formed format-5 envelope whose engine blob names a
        class this library no longer has passes the envelope pre-gate;
        the load itself must still refuse it as a ``SnapshotError``."""
        import pickle

        from repro.io.snapshot import SNAPSHOT_FORMAT

        path = tmp_path / "sharded.pkl"
        path.write_bytes(pickle.dumps({
            "magic": "repro-seal-snapshot", "format": SNAPSHOT_FORMAT,
            "manifest": None, "wal": None, "num_arrays": 0, "array_meta": [],
            "engine": b"crepro.exec.sharded\nSharded" b"SealSearch\n.",
        }))
        assert validate_snapshot(path)["format"] == SNAPSHOT_FORMAT
        old = make_segmented(3)
        manager = EngineManager(old)
        with pytest.raises(SnapshotError, match="incompatible snapshot"):
            manager.load_snapshot(path)
        assert manager.engine is old and manager.epoch == 0

    def test_missing_sidecar_rejected_before_swap(self, tmp_path):
        pytest.importorskip("numpy")
        corpus = [(Rect(i, 0, i + 1, 1), {"a", f"t{i}"}) for i in range(12)]
        engine = SealSearch(corpus, method="token")
        path = tmp_path / "columnar.pkl"
        save_engine(engine, path)
        sidecar_path(path).unlink()
        info = None
        old = make_segmented(3)
        manager = EngineManager(old)
        with pytest.raises(SnapshotError, match="sidecar"):
            info = manager.load_snapshot(path)
        assert info is None and manager.engine is old and manager.epoch == 0

    def test_validate_snapshot_reports_manifest(self, tmp_path):
        engine = make_segmented(6)
        path = tmp_path / "seg.pkl"
        save_engine(engine, path)
        info = validate_snapshot(path)
        from repro.io.snapshot import SNAPSHOT_FORMAT

        assert info["format"] == SNAPSHOT_FORMAT
        assert info["manifest"]["kind"] == "segmented"
        assert info["manifest"]["live"] == 6
        assert info["wal"] is None  # plain save: not a WAL checkpoint

    def test_inflight_reader_finishes_on_old_engine(self):
        """The hot-swap traffic contract, pinned with real threads.

        A reader pins (engine, epoch) and blocks mid-query; a swap
        started meanwhile must wait for it, the reader's whole query
        runs against the engine it pinned, and the first request after
        the swap sees the new engine and the new epoch.
        """
        old = make_segmented(4)
        new = make_segmented(9)
        manager = EngineManager(old)
        reader_entered = threading.Event()
        release_reader = threading.Event()
        observed = {}

        def reader():
            with manager.reading() as (engine, epoch):
                reader_entered.set()
                release_reader.wait(timeout=10.0)
                # The engine must still be the pinned one even though a
                # swap has been waiting on the write lock for a while.
                observed["epoch"] = epoch
                observed["answers"] = engine.search_query(QUERY).answers

        def swapper():
            manager.swap(new)

        reader_thread = threading.Thread(target=reader)
        reader_thread.start()
        assert reader_entered.wait(timeout=10.0)
        swap_thread = threading.Thread(target=swapper)
        swap_thread.start()
        # The swap must be parked behind the in-flight reader.
        swap_thread.join(timeout=0.2)
        assert swap_thread.is_alive()
        assert manager.engine is old
        release_reader.set()
        reader_thread.join(timeout=10.0)
        swap_thread.join(timeout=10.0)
        assert not swap_thread.is_alive()
        # The reader completed against the old engine (4 objects) ...
        assert observed["epoch"] == 0
        assert observed["answers"] == [0, 1, 2, 3]
        # ... and post-swap requests see the new engine and epoch.
        with manager.reading() as (engine, epoch):
            assert engine is new and epoch == 1
            assert engine.search_query(QUERY).answers == list(range(9))


class TestReadWriteLock:
    def test_concurrent_readers_share(self):
        manager = EngineManager(make_segmented())
        inside = threading.Barrier(3, timeout=10.0)

        def reader():
            with manager.reading():
                inside.wait()  # all three readers inside simultaneously

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in threads)

    def test_waiting_writer_blocks_new_readers(self):
        """Writer preference: a parked mutation gates later readers, so a
        steady query stream cannot starve updates forever."""
        manager = EngineManager(make_segmented())
        first_reader_in = threading.Event()
        release_first_reader = threading.Event()
        second_reader_in = threading.Event()
        order = []

        def first_reader():
            with manager.reading():
                first_reader_in.set()
                release_first_reader.wait(timeout=10.0)

        def writer():
            manager.insert(Rect(50, 0, 51, 1), {"a"})
            order.append("writer")

        def second_reader():
            with manager.reading():
                order.append("reader")
                second_reader_in.set()

        t_first = threading.Thread(target=first_reader)
        t_first.start()
        assert first_reader_in.wait(timeout=10.0)
        t_writer = threading.Thread(target=writer)
        t_writer.start()
        time.sleep(0.05)  # let the writer park on the lock
        t_second = threading.Thread(target=second_reader)
        t_second.start()
        # The second reader must queue behind the waiting writer.
        assert not second_reader_in.wait(timeout=0.2)
        release_first_reader.set()
        for thread in (t_first, t_writer, t_second):
            thread.join(timeout=10.0)
        assert order == ["writer", "reader"]

    def test_a_read_that_raises_releases_the_lock(self):
        manager = EngineManager(make_segmented())
        with pytest.raises(KeyError):
            with manager.reading():
                raise KeyError("boom")
        done = threading.Thread(target=manager.insert, args=(Rect(50, 0, 51, 1), {"a"}))
        done.start()
        done.join(timeout=10.0)
        assert not done.is_alive() and manager.epoch == 1

    def test_a_dropped_manager_frees_its_engine_at_once(self):
        """Nothing the manager holds refers back to it, so dropping it
        frees the engine then, not at the collector's next pass."""
        engine = make_segmented()
        freed = weakref.ref(engine)
        manager = EngineManager(engine)
        with manager.reading() as (pinned, _):
            assert pinned is engine
        del engine, pinned
        gc.disable()
        try:
            del manager
            assert freed() is None
        finally:
            gc.enable()


class TestWrappedEngineFlavors:
    def test_manager_wraps_bare_method(self):
        corpus = SealSearch([(Rect(0, 0, 1, 1), {"a"})], method="token")
        method = corpus.method
        manager = EngineManager(method)
        with manager.reading() as (engine, epoch):
            assert epoch == 0
            result = engine.search(Query(Rect(0, 0, 1, 1), frozenset({"a"}), 0.5, 0.5))
            assert result.answers == [0]
