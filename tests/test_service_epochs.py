"""Tests for the service's versioned engine: epochs, locking, hot-swap.

Pins the serving layer's version contract: every answer-affecting
mutation bumps the epoch exactly once, and a snapshot that fails to
load never displaces the live engine — with in-flight readers
finishing on the engine they pinned.
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
    build_method,
    make_corpus,
)
from repro.io import load_engine, save_engine
from repro.io.snapshot import SnapshotError, sidecar_path, validate_snapshot
from repro.service import QueryService


def make_segmented(n: int = 6) -> SegmentedSealSearch:
    return SegmentedSealSearch(
        [(Rect(i, 0, i + 1, 1), {"a", f"t{i}"}) for i in range(n)],
        method="token",
        buffer_capacity=4,
    )


QUERY = Query(Rect(0, 0, 50, 1), frozenset({"a"}), 0.01, 0.0)


class TestEpochs:
    def test_starts_at_zero(self):
        service = QueryService(make_segmented())
        assert service.epoch == 0

    def test_insert_bumps(self):
        service = QueryService(make_segmented())
        service.insert(Rect(20, 0, 21, 1), {"a"})
        assert service.epoch == 1

    def test_a_batch_through_apply_bumps_once(self):
        service = QueryService(make_segmented())
        pairs = [(Rect(20, 0, 21, 1), {"a"}), (Rect(22, 0, 23, 1), {"a"})]
        oids = service.apply(lambda engine: [engine.insert(r, t) for r, t in pairs])
        assert oids == [6, 7]
        assert service.epoch == 1

    def test_apply_bumps_even_when_a_later_insert_fails(self):
        """Partially-applied batches changed the corpus, so the epoch
        must still move — else old cache entries would keep serving."""
        service = QueryService(make_segmented())
        pairs = [(Rect(20, 0, 21, 1), {"a"}), (Rect(22, 0, 23, 1), None)]
        with pytest.raises(TypeError):
            service.apply(lambda engine: [engine.insert(r, t) for r, t in pairs])
        assert service.epoch == 1
        assert len(service.engine) == 7  # the successful insert is live

    def test_delete_bumps_only_when_live(self):
        service = QueryService(make_segmented())
        assert service.delete(0) is True
        assert service.epoch == 1
        assert service.delete(0) is False  # already dead: answers unchanged
        assert service.epoch == 1

    @pytest.mark.parametrize("mutate", [
        pytest.param(lambda s: s.insert(Rect(20, 0, 21, 1), {"a"}), id="insert"),
        pytest.param(lambda s: s.delete(0), id="delete"),
        pytest.param(lambda s: s.apply(lambda engine: engine.delete(1)), id="apply"),
        pytest.param(lambda s: s.swap_engine(make_segmented(9)), id="swap_engine"),
    ])
    def test_every_bump_purges_the_cache_at_once(self, mutate):
        """The bump itself drops the older epochs' entries, under the
        write lock, so no stale answer outlives the mutation in memory;
        the next query misses and answers from the mutated engine."""
        service = QueryService(make_segmented())
        service.query(QUERY)
        assert len(service.cache) == 1
        mutate(service)
        assert service.epoch == 1
        assert len(service.cache) == 0
        with service.reading() as (engine, _):
            expected = engine.search_query(QUERY).answers
        assert service.query(QUERY).answers == expected
        assert service.cache.counters()["misses"] == 2

    def test_reading_pins_an_atomic_pair(self):
        service = QueryService(make_segmented())
        with service.reading() as (engine, epoch):
            assert engine is service.engine and epoch == 0
        service.insert(Rect(20, 0, 21, 1), {"a"})
        with service.reading() as pair:
            assert pair == (engine, 1)

    def test_non_updatable_engine_raises_service_error(self):
        service = QueryService(build_method(make_corpus([(Rect(0, 0, 1, 1), {"a"})]), "token"))
        with pytest.raises(ServiceError, match="does not support in-place insert"):
            service.insert(Rect(0, 0, 1, 1), {"b"})
        with pytest.raises(ServiceError, match="segmented"):
            service.delete(0)
        assert service.epoch == 0


class TestHotSwap:
    def test_swap_replaces_engine_and_bumps(self):
        old = make_segmented(3)
        new = make_segmented(8)
        service = QueryService(old)
        assert service.swap_engine(new) == 1
        assert service.engine is new

    def test_swap_to_a_loaded_snapshot(self, tmp_path):
        service = QueryService(make_segmented(3))
        bigger = make_segmented(9)
        path = tmp_path / "next.pkl"
        save_engine(bigger, path)
        epoch = service.swap_engine(load_engine(path))
        assert epoch == 1
        with service.reading() as (engine, _):
            assert len(engine) == 9

    def test_bad_snapshot_rejected_before_swap(self, tmp_path):
        old = make_segmented(3)
        service = QueryService(old)
        path = tmp_path / "corrupt.pkl"
        path.write_bytes(b"not a snapshot at all")
        with pytest.raises(SnapshotError):
            service.swap_engine(load_engine(path))
        # The live engine was never displaced and the epoch never moved.
        assert service.engine is old
        assert service.epoch == 0

    def test_snapshot_of_a_removed_class_refused_before_swap(self, tmp_path):
        """A well-formed envelope whose engine blob names a class this
        library no longer has passes the envelope check; the load itself
        must still refuse it as a ``SnapshotError``, before the swap."""
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
        service = QueryService(old)
        with pytest.raises(SnapshotError, match="incompatible snapshot"):
            service.swap_engine(load_engine(path))
        assert service.engine is old and service.epoch == 0

    def test_missing_sidecar_rejected_before_swap(self, tmp_path):
        pytest.importorskip("numpy")
        corpus = [(Rect(i, 0, i + 1, 1), {"a", f"t{i}"}) for i in range(12)]
        engine = SealSearch(corpus, method="token")
        path = tmp_path / "columnar.pkl"
        save_engine(engine, path)
        sidecar_path(path).unlink()
        old = make_segmented(3)
        service = QueryService(old)
        with pytest.raises(SnapshotError, match="sidecar"):
            service.swap_engine(load_engine(path))
        assert service.engine is old and service.epoch == 0

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
        service = QueryService(old)
        reader_entered = threading.Event()
        release_reader = threading.Event()
        observed = {}

        def reader():
            with service.reading() as (engine, epoch):
                reader_entered.set()
                release_reader.wait(timeout=10.0)
                # The engine must still be the pinned one even though a
                # swap has been waiting on the write lock for a while.
                observed["epoch"] = epoch
                observed["answers"] = engine.search_query(QUERY).answers

        def swapper():
            service.swap_engine(new)

        reader_thread = threading.Thread(target=reader)
        reader_thread.start()
        assert reader_entered.wait(timeout=10.0)
        swap_thread = threading.Thread(target=swapper)
        swap_thread.start()
        # The swap must be parked behind the in-flight reader.
        swap_thread.join(timeout=0.2)
        assert swap_thread.is_alive()
        assert service.engine is old
        release_reader.set()
        reader_thread.join(timeout=10.0)
        swap_thread.join(timeout=10.0)
        assert not swap_thread.is_alive()
        # The reader completed against the old engine (4 objects) ...
        assert observed["epoch"] == 0
        assert observed["answers"] == [0, 1, 2, 3]
        # ... and post-swap requests see the new engine and epoch.
        with service.reading() as (engine, epoch):
            assert engine is new and epoch == 1
            assert engine.search_query(QUERY).answers == list(range(9))


class TestReadWriteLock:
    def test_concurrent_readers_share(self):
        service = QueryService(make_segmented())
        inside = threading.Barrier(3, timeout=10.0)

        def reader():
            with service.reading():
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
        service = QueryService(make_segmented())
        first_reader_in = threading.Event()
        release_first_reader = threading.Event()
        second_reader_in = threading.Event()
        order = []

        def first_reader():
            with service.reading():
                first_reader_in.set()
                release_first_reader.wait(timeout=10.0)

        def writer():
            service.insert(Rect(50, 0, 51, 1), {"a"})
            order.append("writer")

        def second_reader():
            with service.reading():
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
        service = QueryService(make_segmented())
        with pytest.raises(KeyError):
            with service.reading():
                raise KeyError("boom")
        done = threading.Thread(target=service.insert, args=(Rect(50, 0, 51, 1), {"a"}))
        done.start()
        done.join(timeout=10.0)
        assert not done.is_alive() and service.epoch == 1

    def test_a_dropped_service_frees_its_engine_at_once(self):
        """Nothing the service holds refers back to it, so dropping it
        frees the engine then, not at the collector's next pass — cache,
        admission and metrics included, after a query and a bump."""
        engine = make_segmented()
        freed = weakref.ref(engine)
        service = QueryService(engine)
        with service.reading() as (pinned, _):
            assert pinned is engine
        service.query(QUERY)
        service.insert(Rect(20, 0, 21, 1), {"a"})
        del engine, pinned
        gc.disable()
        try:
            del service
            assert freed() is None
        finally:
            gc.enable()


class TestWrappedEngineFlavors:
    def test_service_wraps_bare_method(self):
        method = build_method(make_corpus([(Rect(0, 0, 1, 1), {"a"})]), "token")
        service = QueryService(method)
        with service.reading() as (engine, epoch):
            assert epoch == 0
            result = engine.search(Query(Rect(0, 0, 1, 1), frozenset({"a"}), 0.5, 0.5))
            assert result.answers == [0]
