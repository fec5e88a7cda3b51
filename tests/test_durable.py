"""Tests for the durable (write-ahead-logged) segmented engine."""

from __future__ import annotations

import pickle
import threading

import pytest

from repro import Query, Rect, build_method
from repro.core.errors import ServiceError
from repro.exec.durable import (
    DurableSegmentedSealSearch,
    apply_record,
    engine_from_config,
    recover,
    replay_records,
)
from repro.exec.segments import SegmentedSealSearch
from repro.io import save_engine, validate_snapshot
from repro.io.wal import WALError, WriteAheadLog, read_wal
from repro.service import QueryService

from tests.durable_testlib import (
    LEGACY_CONFIGS,
    fill,
    legacy_config_id,
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
        assert [r.answers for r in engine.search_batch([PROBE, PROBE])] == [
            engine.search_query(PROBE).answers
        ] * 2
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
        assert info["manifest"]["live"] == 6
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

    @pytest.mark.parametrize("method, params", LEGACY_CONFIGS, ids=legacy_config_id)
    def test_wal_only_recovery_from_a_legacy_config_record(self, tmp_path, monkeypatch,
                                                           method, params):
        """An earlier version's config record may name a knob this one
        dropped (``backend``, ``prefix_pruning``, ``order``): every value
        of it answered alike, so the knob is dropped, each segment is
        rebuilt with the method at its defaults, and the recovered engine
        answers like the naive scan."""
        monkeypatch.setattr("repro.exec.segments.FULL_INDEX_MIN_OBJECTS", 0)
        engine = make_uncheckpointed(tmp_path, method=method, params=params)
        fill(engine, 9)
        engine.delete(2)
        engine.close()
        assert read_wal(tmp_path / "engine.wal").config["params"] == params
        recovered = recover(tmp_path / "engine.pkl", tmp_path / "engine.wal")
        try:
            assert recovered.recovery["source"] == "wal-only"
            assert recovered.config()["params"] == {}
            assert {m.name for m in recovered.engine.segment_methods()} == {method}
            assert_equivalent(recovered, engine)
            for tau_r, tau_t in ((0.01, 0.0), (0.01, 0.3), (0.0, 0.3)):
                query = Query(PROBE.region, PROBE.tokens | {"tag1"}, tau_r, tau_t)
                expected = oracle_answers(recovered, query, "naive")
                assert recovered.search_query(query).answers == expected
        finally:
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


def _layout(engine):
    return (engine.segment_sizes(), engine.pending, engine.tombstones,
            engine.next_oid, engine.compactions)


class TestReplayRecords:
    """The one replay path recovery and replicas share."""

    @pytest.mark.parametrize("payload, call", [
        pytest.param({"op": "insert", "region": [3, 0, 5, 2], "tokens": ["coffee"], "oid": 6},
                     lambda e: e.insert(Rect(3, 0, 5, 2), {"coffee"}), id="insert"),
        pytest.param({"op": "delete", "oid": 4}, lambda e: e.delete(4), id="delete"),
        pytest.param({"op": "delete", "oid": 40}, lambda e: e.delete(40), id="delete-dead"),
        pytest.param({"op": "seal"}, lambda e: e.flush(), id="seal"),
        pytest.param({"op": "compact"}, lambda e: e.compact(), id="compact"),
    ])
    def test_a_record_replays_as_its_engine_call(self, payload, call):
        replayed, direct = (SegmentedSealSearch(method="token", buffer_capacity=4)
                            for _ in range(2))
        fill(replayed, 6)
        fill(direct, 6)
        apply_record(replayed, payload, source="test")
        call(direct)
        assert _layout(replayed) == _layout(direct)
        assert replayed.search_query(PROBE).answers == direct.search_query(PROBE).answers

    def test_an_unknown_op_is_loud_and_names_its_source(self):
        engine = SegmentedSealSearch(method="token")
        with pytest.raises(WALError, match="peer-7: unknown WAL operation 'rename'"):
            apply_record(engine, {"op": "rename"}, source="peer-7")

    def test_an_insert_that_lands_on_another_oid_is_drift(self):
        engine = SegmentedSealSearch(method="token")
        record = {"op": "insert", "region": [0, 0, 1, 1], "tokens": ["a"], "oid": 3}
        with pytest.raises(WALError, match="log.wal: replay drift"):
            apply_record(engine, record, source="log.wal")

    def test_config_records_are_skipped_and_not_counted(self):
        engine = SegmentedSealSearch(method="token")
        payloads = [
            {"op": "config", **engine.config()},
            {"op": "insert", "region": [0, 0, 1, 1], "tokens": ["a"], "oid": 0},
            {"op": "seal"},
        ]
        assert replay_records(engine, payloads) == 2
        assert len(engine) == 1 and engine.pending == 0

    def test_recovery_and_a_replica_replay_build_the_same_engine(self, tmp_path):
        """A wal-only recovery and a replica starting from the same
        config record and fed the same records end identical."""
        wal_path = tmp_path / "e.wal"
        base = SegmentedSealSearch(method="token", buffer_capacity=3)
        engine = DurableSegmentedSealSearch(
            base, WriteAheadLog.create(wal_path, config=base.config()),
            snapshot_path=tmp_path / "missing.pkl")
        fill(engine, 8)
        engine.delete(2)
        engine.compact()
        fill(engine, 4, start=8)
        engine.delete(9)
        engine.close()
        contents = read_wal(wal_path)
        replica = engine_from_config(contents.config)
        count = replay_records(replica, [record.payload for record in contents.records])
        recovered = recover(tmp_path / "missing.pkl", wal_path)
        assert recovered.recovery["records_replayed"] == count == 15
        assert _layout(recovered) == _layout(replica) == _layout(engine)
        assert recovered.search_query(PROBE).answers == replica.search_query(PROBE).answers
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
    def test_service_checkpoint_preserves_epoch(self, tmp_path):
        engine = make_durable(tmp_path)
        fill(engine, 5)
        service = QueryService(engine)
        epoch_before = service.epoch
        path = service.checkpoint()
        assert path == tmp_path / "engine.pkl"
        assert service.epoch == epoch_before
        assert read_wal(engine.wal.path).operations() == []
        engine.close()

    def test_service_checkpoint_requires_durable_engine(self):
        service = QueryService(SegmentedSealSearch(method="token"))
        with pytest.raises(ServiceError, match="does not support checkpoint"):
            service.checkpoint()

    def test_service_swaps_to_a_recovered_engine(self, tmp_path):
        engine = make_durable(tmp_path)
        fill(engine, 6)
        engine.close()
        service = QueryService(SegmentedSealSearch(method="token"))
        epoch = service.swap_engine(recover(tmp_path / "engine.pkl", tmp_path / "engine.wal"))
        assert epoch == 1 and service.epoch == 1
        assert len(service.engine) == 6
        service.engine.close()

    def test_service_mutations_flow_through_wal(self, tmp_path):
        engine = make_durable(tmp_path)
        service = QueryService(engine)
        service.insert(Rect(0, 0, 2, 2), {"coffee"})
        service.delete(0)
        service.apply(lambda live: live.flush())
        service.apply(lambda live: live.compact())
        ops = [r.payload["op"] for r in read_wal(engine.wal.path).operations()]
        assert ops == ["insert", "delete", "seal", "compact"]
        engine.close()

    def test_service_checkpoint_runs_beside_readers(self, tmp_path):
        """A checkpoint takes the shared lock: it completes while a
        reader holds the engine, where a writer would wait for it."""
        engine = make_durable(tmp_path)
        fill(engine, 5)
        service = QueryService(engine)
        with service.reading():
            worker = threading.Thread(target=service.checkpoint)
            worker.start()
            worker.join(timeout=10.0)
            assert not worker.is_alive()
        assert service.epoch == 0
        assert read_wal(engine.wal.path).operations() == []
        engine.close()

    def test_service_checkpoint_and_recover_passthrough(self, tmp_path):
        engine = make_durable(tmp_path)
        fill(engine, 5)
        with QueryService(engine) as service:
            answers = service.query(PROBE).answers
            service.checkpoint()
        engine.close()
        with QueryService(SegmentedSealSearch(method="token")) as service:
            service.swap_engine(recover(tmp_path / "engine.pkl", tmp_path / "engine.wal"))
            assert service.query(PROBE).answers == answers
            service.engine.close()
