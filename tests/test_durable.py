"""Tests for the durable (write-ahead-logged) segmented engine."""

from __future__ import annotations

import pickle

import pytest

from repro import Query, Rect, build_method
from repro.core.errors import ServiceError
from repro.exec.durable import DurableSegmentedSealSearch, recover
from repro.exec.segments import SegmentedSealSearch
from repro.io import read_manifest, save_engine, validate_snapshot
from repro.io.wal import WALError, WriteAheadLog, read_wal
from repro.service import EngineManager, QueryService

from tests.durable_testlib import (
    LEGACY_BACKEND_PARAMS,
    fill,
    make_durable,
    make_uncheckpointed,
    oracle_answers,
)

PROBE = Query(Rect(0.0, 0.0, 14.0, 6.0), frozenset({"coffee"}), 0.01, 0.0)


def assert_equivalent(recovered, original, query=PROBE):
    """The recovery contract: identical answers, layout, and weighter state."""
    assert recovered.search_query(query).answers == original.search_query(query).answers
    assert len(recovered) == len(original)
    assert recovered.num_segments == original.num_segments
    assert recovered.pending == original.pending
    assert recovered.tombstones == original.tombstones
    assert recovered.compactions == original.compactions
    assert recovered.snapshot_manifest() == original.snapshot_manifest()


class TestLogging:
    def test_mutations_logged_before_applied(self, tmp_path):
        engine = make_durable(tmp_path)
        engine.insert(Rect(0, 0, 2, 2), {"coffee"})
        engine.delete(0)
        engine.flush()
        engine.compact()
        ops = [r.payload["op"] for r in read_wal(engine.wal.path).operations()]
        assert ops == ["insert", "delete", "seal", "compact"]
        engine.close()

    def test_failed_apply_rolls_the_record_back(self, tmp_path, monkeypatch):
        """If the engine apply raises while the process survives, the
        appended record is rolled back — otherwise a later crash would
        replay a mutation the live engine never performed, and recovery
        would diverge from every answer served since the error."""
        engine = make_durable(tmp_path)
        fill(engine, 2)

        def boom(*args, **kwargs):
            raise RuntimeError("apply failed")

        real_compact = engine.engine.compact
        monkeypatch.setattr(engine.engine, "compact", boom)
        with pytest.raises(RuntimeError, match="apply failed"):
            engine.compact()
        monkeypatch.setattr(engine.engine, "compact", real_compact)
        # The phantom compact is gone: log ≡ engine, and both keep working.
        assert [r.payload["op"] for r in read_wal(engine.wal.path).operations()] == [
            "insert", "insert",
        ]
        engine.insert(Rect(10, 0, 12, 2), {"coffee"})
        engine.close()
        recovered = recover(tmp_path / "engine.pkl", tmp_path / "engine.wal")
        assert len(recovered) == 3
        assert recovered.compactions == engine.compactions  # no phantom refresh
        recovered.close()

    def test_rollback_validates_offsets(self, tmp_path):
        engine = make_durable(tmp_path)
        with pytest.raises(WALError, match="cannot roll"):
            engine.wal.rollback(engine.wal.position + 100)
        engine.close()

    def test_delete_of_dead_oid_is_logged_and_replays_as_noop(self, tmp_path):
        engine = make_durable(tmp_path)
        fill(engine, 3)
        assert engine.delete(99) is False
        engine.close()
        recovered = recover(tmp_path / "engine.pkl", tmp_path / "engine.wal")
        assert len(recovered) == 3
        recovered.close()

    def test_facade_delegation(self, tmp_path):
        engine = make_durable(tmp_path)
        fill(engine, 5)
        assert engine.search(PROBE.region, PROBE.tokens, 0.01, 0.0).answers
        assert engine.object(0).oid == 0
        assert len(engine.search_batch([PROBE, PROBE]).results) == 2
        assert engine.snapshot_manifest()["kind"] == "segmented"
        assert engine.next_oid == 5
        with pytest.raises(AttributeError):
            engine.no_such_attribute
        engine.close()

    def test_wrapper_refuses_non_segmented_engine(self, tmp_path):
        wal = WriteAheadLog.create(tmp_path / "w.wal", config={"method": "token"})
        with pytest.raises(WALError, match="SegmentedSealSearch"):
            DurableSegmentedSealSearch(object(), wal)
        wal.close()

    def test_wrapper_does_not_pickle(self, tmp_path):
        engine = make_durable(tmp_path)
        with pytest.raises(TypeError, match="checkpoint"):
            pickle.dumps(engine)
        engine.close()

    def test_mutations_after_close_raise(self, tmp_path):
        engine = make_durable(tmp_path)
        engine.close()
        with pytest.raises(WALError, match="closed"):
            engine.insert(Rect(0, 0, 1, 1), {"a"})


class TestCheckpoint:
    def test_create_is_durable_from_birth(self, tmp_path):
        data = [(Rect(i, 0, i + 2, 2), {"coffee"}) for i in range(6)]
        engine = DurableSegmentedSealSearch.create(
            data, "token",
            wal_path=tmp_path / "e.wal", snapshot_path=tmp_path / "e.pkl",
            buffer_capacity=4,
        )
        live = engine.search_query(PROBE).answers
        assert live
        engine.close()
        recovered = recover(tmp_path / "e.pkl", tmp_path / "e.wal")
        assert recovered.recovery["records_replayed"] == 0
        assert recovered.search_query(PROBE).answers == live
        recovered.close()

    def test_checkpoint_records_position_and_resets_log(self, tmp_path):
        engine = make_durable(tmp_path)
        fill(engine, 6)
        assert engine.wal.generation == 1  # create() checkpointed once
        path = engine.checkpoint()
        assert path == tmp_path / "engine.pkl"
        assert engine.wal.generation == 2
        assert read_wal(engine.wal.path).operations() == []
        info = validate_snapshot(path)
        assert info["wal"] == {"generation": 1, "offset": info["wal"]["offset"]}
        assert info["wal"]["offset"] > 0
        assert read_manifest(path)["live"] == 6
        engine.close()

    def test_checkpoint_requires_a_path(self, tmp_path):
        wal = WriteAheadLog.create(
            tmp_path / "w.wal",
            config=SegmentedSealSearch(method="token").config(),
        )
        engine = DurableSegmentedSealSearch(SegmentedSealSearch(method="token"), wal)
        with pytest.raises(WALError, match="no snapshot path"):
            engine.checkpoint()
        engine.checkpoint(tmp_path / "explicit.pkl")
        assert engine.snapshot_path == tmp_path / "explicit.pkl"
        engine.close()

    def test_plain_save_engine_stores_no_wal_position(self, tmp_path):
        save_engine(SegmentedSealSearch(method="token"), tmp_path / "plain.pkl")
        assert validate_snapshot(tmp_path / "plain.pkl")["wal"] is None


class TestRecovery:
    def test_recover_tail_after_checkpoint(self, tmp_path):
        engine = make_durable(tmp_path)
        fill(engine, 6)
        engine.checkpoint()
        fill(engine, 5, start=6)  # tail past the checkpoint
        engine.delete(1)
        engine.close()
        recovered = recover(tmp_path / "engine.pkl", tmp_path / "engine.wal")
        assert recovered.recovery["source"] == "snapshot+wal"
        assert recovered.recovery["records_replayed"] == 6
        assert_equivalent(recovered, engine)
        assert recovered.search_query(PROBE).answers == oracle_answers(recovered, PROBE)
        recovered.close()

    def test_recover_without_snapshot_bootstraps_from_config(self, tmp_path):
        """Generation-0 WAL with no snapshot: the config record rebuilds
        an equivalent empty engine and the whole log replays."""
        wal_path, snap_path = tmp_path / "e.wal", tmp_path / "missing.pkl"
        base = SegmentedSealSearch(method="token", buffer_capacity=4)
        wal = WriteAheadLog.create(wal_path, config=base.config())
        engine = DurableSegmentedSealSearch(base, wal, snapshot_path=snap_path)
        fill(engine, 7)
        engine.delete(2)
        engine.flush()
        engine.close()
        recovered = recover(snap_path, wal_path)
        assert recovered.recovery["source"] == "wal-only"
        assert_equivalent(recovered, engine)
        recovered.close()

    def test_recovered_engine_keeps_taking_durable_writes(self, tmp_path):
        engine = make_durable(tmp_path)
        fill(engine, 6)
        engine.close()
        first = recover(tmp_path / "engine.pkl", tmp_path / "engine.wal")
        first.insert(Rect(20, 0, 22, 2), {"coffee"})
        first.close()
        second = recover(tmp_path / "engine.pkl", tmp_path / "engine.wal")
        assert len(second) == 7
        assert second.search_query(PROBE).answers == oracle_answers(second, PROBE)
        second.close()

    def test_replay_preserves_weighter_refresh_points(self, tmp_path):
        """compact() refreshes idf weights; replay must reproduce the
        refresh at the same position so post-compaction answers match."""
        engine = make_durable(tmp_path, buffer_capacity=3)
        fill(engine, 7)
        engine.compact()
        fill(engine, 4, start=7)  # drift window after the compaction
        engine.close()
        recovered = recover(tmp_path / "engine.pkl", tmp_path / "engine.wal")
        assert recovered.compactions == engine.compactions
        for tau in (0.0, 0.2, 0.4):
            query = Query(PROBE.region, PROBE.tokens, 0.01, tau)
            assert (
                recovered.search_query(query).answers
                == engine.search_query(query).answers
            )
        recovered.close()

    def test_recover_with_mmap(self, tmp_path):
        engine = make_durable(tmp_path)
        fill(engine, 9)
        engine.checkpoint()
        fill(engine, 3, start=9)
        engine.close()
        recovered = recover(tmp_path / "engine.pkl", tmp_path / "engine.wal", mmap=True)
        assert_equivalent(recovered, engine)
        recovered.close()

    @pytest.mark.parametrize("params", LEGACY_BACKEND_PARAMS, ids=lambda p: p["backend"])
    def test_wal_only_recovery_from_a_legacy_config_record(self, tmp_path, params):
        """The parent's config records may name an index backend; both
        values replayed to identical answers, so the key is dropped."""
        engine = make_uncheckpointed(tmp_path, params=params)
        fill(engine, 9)
        engine.delete(2)
        engine.close()
        assert read_wal(tmp_path / "engine.wal").config["params"] == params
        recovered = recover(tmp_path / "engine.pkl", tmp_path / "engine.wal")
        assert recovered.recovery["source"] == "wal-only"
        assert recovered.config()["params"] == {}
        assert_equivalent(recovered, engine)
        for tau in (0.0, 0.3):
            query = Query(PROBE.region, PROBE.tokens, 0.01, tau)
            assert recovered.search_query(query).answers == oracle_answers(recovered, query)
        recovered.close()

    def test_generation0_wal_from_before_element_codes_recovers_to_the_oracle(
        self, tmp_path, monkeypatch
    ):
        """``tests/fixtures/seal_generation0.wal`` was written by the
        library at snapshot format 6, when directories were keyed by
        ``(token, cell)`` tuples: a segmented ``seal`` engine's config
        record, 48 inserts, 3 deletes and a compaction, no snapshot.
        Replay builds this version's code-keyed indexes from it — every
        segment a ``seal`` index here — and answers like the oracle."""
        import shutil
        from pathlib import Path

        from repro.datasets import generate_queries

        monkeypatch.setattr("repro.exec.segments.FULL_INDEX_MIN_OBJECTS", 0)
        wal = tmp_path / "engine.wal"
        shutil.copy(Path(__file__).parent / "fixtures" / "seal_generation0.wal", wal)
        assert read_wal(wal).generation == 0
        recovered = recover(tmp_path / "engine.pkl", wal)
        try:
            assert recovered.recovery["source"] == "wal-only" and len(recovered) == 45
            methods = recovered.engine.segment_methods()
            assert methods and {method.name for method in methods} == {"seal"}
            live = [recovered.object(oid) for oid in sorted(recovered.engine._live)]
            queries = [
                query.with_thresholds(tau_r=tau_r, tau_t=tau_t)
                for query in generate_queries(live, "large", num_queries=6, seed=2)
                for tau_r, tau_t in ((0.05, 0.1), (0.0, 0.3), (0.2, 0.0))
            ]
            for query in queries:
                expected = oracle_answers(recovered, query, "naive")
                assert recovered.search_query(query).answers == expected
            assert any(oracle_answers(recovered, query, "naive") for query in queries)
        finally:
            recovered.close()

    @pytest.mark.parametrize(
        "params, named",
        [({"bogus": 1}, "'bogus'"), ({"backend": "python", "granularity": 8}, "'granularity'")],
    )
    def test_config_record_with_an_unknown_param_fails_at_open(self, tmp_path, params, named):
        """... with the typed error, naming the log and the key — not at
        the first replayed seal, and without touching the log."""
        engine = make_uncheckpointed(tmp_path, params=params)
        fill(engine, 3)  # below the buffer capacity: nothing has sealed yet
        engine.close()
        wal_path = tmp_path / "engine.wal"
        wal_path.write_bytes(wal_path.read_bytes() + b"torn")
        before = wal_path.read_bytes()
        with pytest.raises(WALError, match="unusable engine-config record") as error:
            recover(tmp_path / "engine.pkl", wal_path)
        assert str(wal_path) in str(error.value) and named in str(error.value)
        assert "'backend'" not in str(error.value)
        assert wal_path.read_bytes() == before  # not even the torn tail was trimmed

    def test_strict_recovery_refuses_torn_tail(self, tmp_path):
        engine = make_durable(tmp_path)
        fill(engine, 4)
        engine.close()
        wal_path = tmp_path / "engine.wal"
        wal_path.write_bytes(wal_path.read_bytes()[:-3])
        with pytest.raises(WALError, match="torn"):
            recover(tmp_path / "engine.pkl", wal_path, strict=True)
        recovered = recover(tmp_path / "engine.pkl", wal_path)  # tolerant default
        assert recovered.recovery["torn_bytes_dropped"] > 0
        assert len(recovered) == 3  # the torn insert is gone
        recovered.close()


class TestRecoveryFailsLoudly:
    def test_snapshot_without_wal_position(self, tmp_path):
        engine = SegmentedSealSearch(method="token")
        save_engine(engine, tmp_path / "plain.pkl")
        WriteAheadLog.create(tmp_path / "w.wal", config=engine.config()).close()
        with pytest.raises(WALError, match="not written by a WAL checkpoint"):
            recover(tmp_path / "plain.pkl", tmp_path / "w.wal")

    def test_generation_mismatch(self, tmp_path):
        engine = make_durable(tmp_path)
        fill(engine, 3)
        engine.checkpoint()
        engine.checkpoint()  # WAL now two generations past the... same snapshot
        # Rewind the snapshot to an older lineage: re-create it elsewhere
        other = DurableSegmentedSealSearch.create(
            method="token",
            wal_path=tmp_path / "other.wal", snapshot_path=tmp_path / "other.pkl",
        )
        other.close()
        engine.close()
        with pytest.raises(WALError, match="not from the same lineage"):
            recover(tmp_path / "other.pkl", tmp_path / "engine.wal")

    def test_missing_snapshot_after_truncation(self, tmp_path):
        engine = make_durable(tmp_path)
        fill(engine, 3)
        engine.close()
        (tmp_path / "engine.pkl").unlink()
        with pytest.raises(WALError, match="unrecoverable"):
            recover(tmp_path / "engine.pkl", tmp_path / "engine.wal")

    def test_wal_without_config_and_no_snapshot(self, tmp_path):
        path = tmp_path / "bare.wal"
        import struct

        path.write_bytes(struct.pack("<8sIQ", b"SEALWAL\x00", 1, 0))
        with pytest.raises(WALError, match="no engine-config record"):
            recover(tmp_path / "missing.pkl", path)

    def test_non_segmented_snapshot(self, tmp_path, figure1_objects, figure1_weighter):
        method = build_method(figure1_objects, "token", figure1_weighter)
        # Forge a wal position onto a non-segmented snapshot.
        save_engine(method, tmp_path / "m.pkl", wal_position={"generation": 0, "offset": 20})
        WriteAheadLog.create(
            tmp_path / "w.wal", config={"method": "token", "buffer_capacity": 4,
                                        "merge_fanout": 4, "params": {}},
        ).close()
        with pytest.raises(WALError, match="not a segmented engine"):
            recover(tmp_path / "m.pkl", tmp_path / "w.wal")

    def test_orphaned_snapshot_after_checkpoint_elsewhere(self, tmp_path, monkeypatch):
        """The review scenario: a checkpoint's WAL reset is interrupted,
        acknowledged ops keep arriving, and the operator repairs into a
        *different* snapshot path — whose checkpoint resets the shared
        WAL.  The original snapshot then sits exactly one generation
        behind, which must NOT silently replay as an empty tail (its
        acknowledged tail went into the other snapshot): the reset's
        parent marker makes it a loud lineage error."""
        snap, wal = tmp_path / "engine.pkl", tmp_path / "engine.wal"
        engine = make_durable(tmp_path)
        fill(engine, 3)

        def crash(self, **kwargs):
            raise OSError("killed before WAL truncation")

        monkeypatch.setattr(WriteAheadLog, "reset", crash)
        with pytest.raises(OSError, match="killed"):
            engine.checkpoint()  # snapshot written; reset never ran
        monkeypatch.undo()
        fill(engine, 2, start=3)  # acknowledged tail past the snapshot
        engine.close()
        repaired = recover(snap, wal)
        repaired.checkpoint(tmp_path / "elsewhere.pkl")  # resets the shared WAL
        repaired.close()
        # elsewhere.pkl owns the reset: it aligns and holds everything...
        recovered = recover(tmp_path / "elsewhere.pkl", wal)
        assert len(recovered) == 5
        recovered.close()
        # ...but the original snapshot may not claim the reset log as its
        # own (it would lose oids 3–4 silently).
        with pytest.raises(WALError, match="checkpointed\\s+elsewhere"):
            recover(snap, wal)

    def test_method_mismatch_between_wal_and_snapshot(self, tmp_path):
        token = make_durable(tmp_path, method="token")
        token.close()
        other_dir = tmp_path / "other"
        other_dir.mkdir()
        seal = DurableSegmentedSealSearch.create(
            method="seal",
            wal_path=other_dir / "engine.wal", snapshot_path=other_dir / "engine.pkl",
        )
        seal.close()
        with pytest.raises(WALError, match="lineage"):
            recover(other_dir / "engine.pkl", tmp_path / "engine.wal")


class TestServiceIntegration:
    def test_manager_checkpoint_preserves_epoch(self, tmp_path):
        engine = make_durable(tmp_path)
        fill(engine, 5)
        manager = EngineManager(engine)
        epoch_before = manager.epoch
        path = manager.checkpoint()
        assert path == tmp_path / "engine.pkl"
        assert manager.epoch == epoch_before
        assert read_wal(engine.wal.path).operations() == []
        engine.close()

    def test_manager_checkpoint_requires_durable_engine(self):
        manager = EngineManager(SegmentedSealSearch(method="token"))
        with pytest.raises(ServiceError, match="does not support checkpoint"):
            manager.checkpoint()

    def test_manager_recover_swaps_and_bumps(self, tmp_path):
        engine = make_durable(tmp_path)
        fill(engine, 6)
        engine.close()
        manager = EngineManager(SegmentedSealSearch(method="token"))
        epoch = manager.recover(tmp_path / "engine.pkl", tmp_path / "engine.wal")
        assert epoch == 1 and manager.epoch == 1
        assert len(manager.engine) == 6
        manager.engine.close()

    def test_manager_mutations_flow_through_wal(self, tmp_path):
        engine = make_durable(tmp_path)
        manager = EngineManager(engine)
        manager.insert(Rect(0, 0, 2, 2), {"coffee"})
        manager.delete(0)
        manager.flush()
        manager.compact()
        ops = [r.payload["op"] for r in read_wal(engine.wal.path).operations()]
        assert ops == ["insert", "delete", "seal", "compact"]
        engine.close()

    def test_manager_recover_refuses_live_appender_on_same_wal(self, tmp_path):
        """Two appenders on one log overwrite each other; recovery from
        the WAL the live engine still owns must be refused loudly."""
        engine = make_durable(tmp_path)
        fill(engine, 3)
        manager = EngineManager(engine)
        with pytest.raises(ServiceError, match="two writers"):
            manager.recover(tmp_path / "engine.pkl", tmp_path / "engine.wal")
        engine.close()  # released: now the recovery may proceed
        epoch = manager.recover(tmp_path / "engine.pkl", tmp_path / "engine.wal")
        assert epoch == 1 and len(manager.engine) == 3
        manager.engine.close()

    def test_service_checkpoint_and_recover_passthrough(self, tmp_path):
        engine = make_durable(tmp_path)
        fill(engine, 5)
        with QueryService(engine) as service:
            answers = service.query(PROBE).answers
            service.checkpoint()
        engine.close()
        with QueryService(SegmentedSealSearch(method="token")) as service:
            service.recover(tmp_path / "engine.pkl", tmp_path / "engine.wal")
            assert service.query(PROBE).answers == answers
            service.engine.close()
