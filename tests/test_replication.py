"""Replication suite: ship, apply, diverge, crash, re-bootstrap.

The contract under test, from ISSUE 9:

    a replica that bootstraps from the primary's checkpoint and tails
    its WAL answers **bit-identically** to the primary and to a
    from-scratch ``build_method`` oracle over the live set — and any
    lineage it cannot align (the primary checkpointed past it, a frame
    off the checksum grid, replay drift) fails loudly with
    :class:`ReplicationError` and re-bootstraps, never serving wrong
    answers.

Covered here:

* :class:`WALCursor` frame shipping — sealed-tail reads, batching,
  the ``end`` cap, off-grid offsets, generation lineage errors;
* network differential: replica ≡ primary ≡ oracle, through
  bootstrap-from-snapshot, bootstrap-from-config, live ingest, and
  checkpoint adoption;
* the divergence taxonomy — behind-a-checkpoint re-bootstrap, replicas
  refusing ``repl-*`` ops, non-durable primaries refused;
* crash safety: a state-dir image taken after *every* ship/ack
  boundary resumes and converges; torn local checkpoints are
  discarded; a SIGKILLed replica process resumes mid-stream;
* reads served concurrently while the applier thread replays.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import signal
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro import Query, Rect
from repro.core.errors import ProtocolError, ReplicationError
from repro.exec.durable import DurableSegmentedSealSearch
from repro.exec.segments import SegmentedSealSearch
from repro.io.wal import (
    HEADER_SIZE,
    WALCursor,
    WALError,
    WALLineageError,
    WriteAheadLog,
)
from repro.service import NetworkClient, NetworkServer, QueryService
from repro.service.replication import (
    ReplicaApplier,
    ReplicationPrimary,
    read_replica_status,
)

from tests.durable_testlib import (
    LEGACY_CONFIGS,
    legacy_config_id,
    make_durable,
    make_uncheckpointed,
    oracle_answers,
    snapshot_of,
    wal_of,
)

PROBES = [
    Query(Rect(0.0, 0.0, 20.0, 6.0), frozenset({"coffee"}), 0.01, 0.0),
    Query(Rect(2.0, 0.0, 9.0, 3.0), frozenset({"coffee", "tag1"}), 0.05, 0.1),
    Query(Rect(0.0, 0.0, 30.0, 30.0), frozenset({"tag0", "tag2"}), 0.0, 0.2),
]


def durable_primary(root: Path, **params):
    root.mkdir(parents=True, exist_ok=True)
    return make_durable(root, **params)


def fill(engine, count: int, start: int = 0) -> None:
    for i in range(start, start + count):
        engine.insert(Rect(i, 0, i + 2, 2), {"coffee", f"tag{i % 3}"})


def answers_of(engine):
    return [engine.search_query(query).answers for query in PROBES]


def replica_answers(applier: ReplicaApplier):
    with applier.service.reading() as (engine, _epoch):
        return answers_of(engine)


def assert_replica_matches(applier, primary, oracle="token", **params):
    """Replica ≡ primary ≡ from-scratch ``oracle`` build, over every probe."""
    expected = answers_of(primary)
    got = replica_answers(applier)
    assert got == expected
    for query, answer in zip(PROBES, expected):
        assert answer == oracle_answers(primary, query, oracle, **params)
    with applier.service.reading() as (engine, _epoch):
        assert sorted(engine._live) == sorted(primary.engine._live)


@contextmanager
def primary_server(durable, **primary_kwargs):
    """Serve ``durable`` with a ReplicationPrimary attached; yields
    ``(host, port, publisher)``."""
    service = QueryService(durable, enable_cache=False, workers=2)
    publisher = ReplicationPrimary(durable, **primary_kwargs)
    service.replication = publisher
    with service, NetworkServer(service) as server:
        host, port = server.address
        yield host, port, publisher


def make_replica(host, port, root, **kwargs) -> ReplicaApplier:
    kwargs.setdefault("poll_interval", 0.01)
    kwargs.setdefault("timeout", 15.0)
    return ReplicaApplier(host, port, root=root, **kwargs)


# ----------------------------------------------------------------------
# WALCursor: the shipping reader
# ----------------------------------------------------------------------


class TestWALCursor:
    def test_ships_the_sealed_tail_bit_identically(self, tmp_path):
        engine = make_durable(tmp_path)
        fill(engine, 5)
        cursor = WALCursor(engine.wal.path)
        stable = engine.stable_position
        shipment = cursor.read_from(stable["generation"], HEADER_SIZE)
        assert shipment.start == HEADER_SIZE
        assert shipment.end == stable["offset"] == engine.wal.position
        raw = engine.wal.path.read_bytes()
        assert shipment.data == raw[HEADER_SIZE:stable["offset"]]
        # Post-checkpoint logs lead with their config record.
        assert [r.payload["op"] for r in shipment.records] == ["config"] + ["insert"] * 5
        # Offsets are the primary's own byte positions: contiguous frames.
        assert shipment.records[0].offset == HEADER_SIZE
        engine.close()

    def test_batches_under_max_bytes_reassemble_the_stream(self, tmp_path):
        engine = make_durable(tmp_path)
        fill(engine, 8)
        cursor = WALCursor(engine.wal.path)
        stable = engine.stable_position
        offset, pieces, rounds = HEADER_SIZE, [], 0
        while offset < stable["offset"]:
            shipment = cursor.read_from(
                stable["generation"], offset, max_bytes=64, end=stable["offset"]
            )
            assert shipment.records, "a non-empty tail must ship progress"
            pieces.append(shipment.data)
            offset = shipment.end
            rounds += 1
        assert rounds > 1, "64-byte batches must split 8 records"
        raw = engine.wal.path.read_bytes()
        assert b"".join(pieces) == raw[HEADER_SIZE:stable["offset"]]
        engine.close()

    def test_end_cap_excludes_the_unsealed_tail(self, tmp_path):
        engine = make_durable(tmp_path)
        fill(engine, 2)
        cap = engine.wal.position
        fill(engine, 3, start=2)
        cursor = WALCursor(engine.wal.path)
        shipment = cursor.read_from(engine.wal.generation, HEADER_SIZE, end=cap)
        assert shipment.end == cap
        assert [r.payload["op"] for r in shipment.records] == [
            "config", "insert", "insert",
        ]
        # And an empty read exactly at the cap.
        assert len(cursor.read_from(engine.wal.generation, cap, end=cap)) == 0
        engine.close()

    def test_offsets_off_the_frame_grid_fail_loudly(self, tmp_path):
        engine = make_durable(tmp_path)
        fill(engine, 3)
        cursor = WALCursor(engine.wal.path)
        generation = engine.wal.generation
        # Misaligned inside a sealed region: garbage parsed as a frame
        # length either fails its checksum or overruns the bound.
        with pytest.raises(WALError, match="frame grid"):
            cursor.read_from(generation, HEADER_SIZE + 1, end=engine.wal.position)
        with pytest.raises(WALError, match="header"):
            cursor.read_from(generation, HEADER_SIZE - 1)
        with pytest.raises(WALError, match="past"):
            cursor.read_from(generation, engine.wal.position + 1024)
        engine.close()

    def test_generation_mismatch_names_the_parent_checkpoint(self, tmp_path):
        engine = make_durable(tmp_path)
        fill(engine, 4)
        old = engine.stable_position
        engine.checkpoint()
        cursor = WALCursor(engine.wal.path)
        with pytest.raises(WALLineageError) as excinfo:
            cursor.read_from(old["generation"], old["offset"])
        assert excinfo.value.generation == engine.wal.generation
        assert excinfo.value.parent == old
        engine.close()


# ----------------------------------------------------------------------
# Network differential: replica ≡ primary ≡ oracle
# ----------------------------------------------------------------------


class TestReplicaDifferential:
    def test_snapshot_bootstrap_matches_primary_and_oracle(self, tmp_path):
        primary = durable_primary(tmp_path / "primary")
        fill(primary, 8)
        primary.checkpoint()
        fill(primary, 6, start=8)
        primary.delete(2)
        primary.delete(9)
        primary.flush()
        with primary_server(primary) as (host, port, _publisher):
            applier = make_replica(host, port, tmp_path / "replica")
            applier.bootstrap()
            applier.catch_up()
            assert applier.source == "snapshot"
            assert applier.lineage == (
                primary.stable_position["generation"],
                primary.stable_position["offset"],
            )
            assert_replica_matches(applier, primary)
            applier.stop()
        primary.close()

    def test_replica_follows_live_ingest(self, tmp_path):
        primary = durable_primary(tmp_path / "primary")
        fill(primary, 4)
        with primary_server(primary) as (host, port, _publisher):
            applier = make_replica(host, port, tmp_path / "replica")
            applier.bootstrap()
            applier.catch_up()
            for round_start in (4, 10, 16):
                fill(primary, 6, start=round_start)
                primary.delete(round_start)
                applier.catch_up()
                assert_replica_matches(applier, primary)
            applier.stop()
        primary.close()

    def test_config_bootstrap_from_a_generation_zero_primary(self, tmp_path):
        # A primary that has never checkpointed: no snapshot to ship,
        # but its complete generation-0 log replays from the config
        # record — the wal-only recovery path, over the wire.
        root = tmp_path / "primary"
        root.mkdir()
        engine = SegmentedSealSearch((), "token", buffer_capacity=4)
        wal = WriteAheadLog.create(wal_of(root), config=engine.config())
        primary = DurableSegmentedSealSearch(
            engine, wal, snapshot_path=snapshot_of(root)
        )
        fill(primary, 5)
        assert primary.stable_position["generation"] == 0
        with primary_server(primary) as (host, port, _publisher):
            applier = make_replica(host, port, tmp_path / "replica")
            applier.bootstrap()
            applier.catch_up()
            assert applier.source == "config"
            assert_replica_matches(applier, primary)
            applier.stop()
        primary.close()

    @pytest.mark.parametrize("method, params", LEGACY_CONFIGS, ids=legacy_config_id)
    def test_config_bootstrap_from_a_legacy_config_record(self, tmp_path, monkeypatch,
                                                          method, params):
        """The primary ships its log's config record verbatim; one naming
        a knob this version dropped (``backend``, ``prefix_pruning``,
        ``order``) still bootstraps a replica whose segments are that
        method at its defaults, answering like the naive scan."""
        monkeypatch.setattr("repro.exec.segments.FULL_INDEX_MIN_OBJECTS", 0)
        root = tmp_path / "primary"
        root.mkdir()
        primary = make_uncheckpointed(root, method=method, params=params)
        fill(primary, 9)
        primary.delete(3)
        with primary_server(primary) as (host, port, _publisher):
            applier = make_replica(host, port, tmp_path / "replica")
            applier.bootstrap()
            applier.catch_up()
            assert applier.source == "config"
            assert_replica_matches(applier, primary, oracle="naive")
            with applier.service.reading() as (engine, _epoch):
                assert {m.name for m in engine.segment_methods()} == {method}
            applier.stop()
        primary.close()

    def test_config_bootstrap_refuses_an_unknown_param(self, tmp_path):
        """Any other key nothing accepts fails the bootstrap with the
        typed error, before a single record is replayed."""
        root = tmp_path / "primary"
        root.mkdir()
        primary = make_uncheckpointed(root, params={"bogus": 1})
        fill(primary, 3)
        with primary_server(primary) as (host, port, _publisher):
            applier = make_replica(host, port, tmp_path / "replica")
            with pytest.raises(WALError, match=f"primary {host}:{port}.*'bogus'"):
                applier.bootstrap()
            assert applier.bootstraps == 0
            applier.stop()
        primary.close()

    def test_aligned_checkpoint_adopts_the_new_generation_in_place(self, tmp_path):
        primary = durable_primary(tmp_path / "primary")
        fill(primary, 5)
        with primary_server(primary) as (host, port, _publisher):
            applier = make_replica(host, port, tmp_path / "replica")
            applier.bootstrap()
            applier.catch_up()
            primary.checkpoint()
            # Exactly at the cut: the replica adopts the fresh log from
            # its header — no re-bootstrap, nothing re-applied.
            assert applier.step() == 0
            assert applier.lineage == (primary.wal.generation, HEADER_SIZE)
            assert applier.bootstraps == 1
            fill(primary, 4, start=5)
            applier.catch_up()
            assert_replica_matches(applier, primary)
            applier.stop()
        primary.close()

    def test_behind_a_checkpoint_fails_loudly_then_rebootstraps(self, tmp_path):
        primary = durable_primary(tmp_path / "primary")
        fill(primary, 4)
        with primary_server(primary) as (host, port, _publisher):
            applier = make_replica(host, port, tmp_path / "replica")
            applier.bootstrap()
            applier.catch_up()
            # Records the replica never fetched are checkpointed away:
            # its lineage is no longer servable.
            fill(primary, 3, start=4)
            primary.checkpoint()
            with pytest.raises(ReplicationError, match="re-bootstrap"):
                applier.step()
            applier.bootstrap()
            applier.catch_up()
            assert applier.bootstraps == 2
            assert_replica_matches(applier, primary)
            applier.stop()
        primary.close()

    def test_primary_status_tracks_replica_lag_and_metrics(self, tmp_path):
        primary = durable_primary(tmp_path / "primary")
        fill(primary, 6)
        with primary_server(primary) as (host, port, publisher):
            applier = make_replica(
                host, port, tmp_path / "replica", replica_id="replica-a"
            )
            applier.bootstrap()
            applier.catch_up()
            # The fetch *is* the ack, so the primary's view trails by
            # one round: an empty poll delivers the final lineage.
            assert applier.step() == 0
            status = publisher.status()
            assert status["role"] == "primary"
            entry = status["replicas"]["replica-a"]
            assert entry["lag_bytes"] == 0
            assert entry["fetches"] > 0
            assert list(entry["applied"]) == list(applier.lineage)
            # The replication block rides the ordinary metrics op.
            with NetworkClient(host, port) as client:
                metrics = client.metrics()
            assert metrics["replication"]["role"] == "primary"
            assert "replica-a" in metrics["replication"]["replicas"]
            applier.stop()
        primary.close()


# ----------------------------------------------------------------------
# The divergence taxonomy
# ----------------------------------------------------------------------


class TestDivergence:
    def test_a_replica_refuses_repl_ops(self, tmp_path):
        primary = durable_primary(tmp_path / "primary")
        fill(primary, 3)
        with primary_server(primary) as (host, port, _publisher):
            applier = make_replica(host, port, tmp_path / "replica",
                                   service_config={"enable_cache": False})
            applier.bootstrap()
            applier.catch_up()
            # Serve the replica itself, repl ops routed to the applier:
            # chaining a second replica off it must fail loudly.
            service = applier.service
            service.replication = applier
            with service, NetworkServer(service) as replica_server:
                r_host, r_port = replica_server.address
                chained = make_replica(r_host, r_port, tmp_path / "chained")
                with pytest.raises(ReplicationError, match="replica of"):
                    chained.bootstrap()
            applier.stop()
        primary.close()

    def test_a_plain_server_refuses_repl_ops(self, tmp_path):
        primary = durable_primary(tmp_path / "primary")
        fill(primary, 3)
        service = QueryService(primary, enable_cache=False)  # no publisher
        with service, NetworkServer(service) as server:
            host, port = server.address
            applier = make_replica(host, port, tmp_path / "replica")
            with pytest.raises(ProtocolError, match="no replication source"):
                applier.bootstrap()
        primary.close()

    def test_replication_needs_a_durable_primary(self):
        with pytest.raises(ReplicationError, match="durable"):
            ReplicationPrimary(SegmentedSealSearch((), "token"))

    @pytest.mark.parametrize("skew", [1, -1], ids=["one-byte-long", "one-byte-short"])
    def test_a_shipment_end_off_its_frames_is_divergence(self, tmp_path, skew):
        """A shipment's ``end`` is ``start`` plus its frame bytes.  Any
        other value would move the lineage past bytes never applied (a
        skipped delete is never noticed) or short of bytes applied; the
        replica refuses it before replaying anything."""
        primary = durable_primary(tmp_path / "primary")
        fill(primary, 2)
        with primary_server(primary) as (host, port, _publisher):
            applier = make_replica(host, port, tmp_path / "replica")
            applier.bootstrap()
            applier.catch_up()
            fill(primary, 3, start=2)
            primary.delete(0)
            lineage, applied = applier.lineage, applier.applied_records
            shipped = []
            real_rpc = applier._rpc

            def skewed_rpc(request):
                body = real_rpc(request)
                shipped.append(body["frames"])
                body["end"] = body["end"] + skew
                return body

            applier._rpc = skewed_rpc
            with pytest.raises(ReplicationError, match="claims they end at"):
                applier.step()
            assert shipped and shipped[0]  # a valid, non-empty frame run
            assert applier.lineage == lineage
            assert applier.applied_records == applied
            del applier._rpc
            applier.bootstrap()
            applier.catch_up()
            assert_replica_matches(applier, primary)
            applier.stop()
        primary.close()

    @pytest.mark.parametrize("field", ["start", "generation"])
    def test_a_shipment_for_another_position_is_divergence(self, tmp_path, field):
        primary = durable_primary(tmp_path / "primary")
        fill(primary, 2)
        with primary_server(primary) as (host, port, _publisher):
            applier = make_replica(host, port, tmp_path / "replica")
            applier.bootstrap()
            applier.catch_up()
            fill(primary, 2, start=2)
            lineage = applier.lineage
            real_rpc = applier._rpc

            def moved_rpc(request):
                body = real_rpc(request)
                body[field] = body[field] + 1
                return body

            applier._rpc = moved_rpc
            with pytest.raises(ReplicationError, match="for a fetch at"):
                applier.step()
            assert applier.lineage == lineage
            applier.stop()
        primary.close()

    def test_a_caught_up_poll_ships_nothing_and_keeps_the_lineage(self, tmp_path):
        """An empty shipment ends where it starts: the end check lets it
        through and nothing moves."""
        primary = durable_primary(tmp_path / "primary")
        fill(primary, 3)
        with primary_server(primary) as (host, port, _publisher):
            applier = make_replica(host, port, tmp_path / "replica")
            applier.bootstrap()
            applier.catch_up()
            lineage, shipments = applier.lineage, applier.shipments
            assert applier.step() == 0
            assert applier.lineage == lineage
            assert applier.shipments == shipments + 1
            assert_replica_matches(applier, primary)
            applier.stop()
        primary.close()

    def test_divergent_fetch_offset_is_a_loud_error(self, tmp_path):
        primary = durable_primary(tmp_path / "primary")
        fill(primary, 4)
        with primary_server(primary) as (host, port, _publisher):
            stable = primary.stable_position
            with NetworkClient(host, port) as client:
                with pytest.raises(ReplicationError):
                    client.call(
                        {
                            "op": "repl-fetch",
                            "replica": "off-grid",
                            "generation": stable["generation"],
                            "offset": HEADER_SIZE + 1,
                        }
                    )
        primary.close()


# ----------------------------------------------------------------------
# Crash safety: every ship/ack boundary, torn checkpoints, SIGKILL
# ----------------------------------------------------------------------


def _replica_image(root: Path, dest: Path) -> Path:
    """Copy the replica state dir as a kill at this instant would leave
    it (the local checkpoint is written atomically, so the copy is a
    valid post-crash disk image)."""
    shutil.copytree(root, dest)
    return dest


class TestCrashInjection:
    @pytest.mark.parametrize("checkpoint_records", [1, None])
    def test_kill_at_every_ship_boundary_resumes_and_converges(
        self, tmp_path, checkpoint_records
    ):
        """Single-record shipments; after every applied batch the state
        dir is imaged.  Every image — whether its local checkpoint is
        per-batch fresh (checkpoint_records=1) or bootstrap-stale
        (None) — must resume and converge to the primary exactly."""
        primary = durable_primary(tmp_path / "primary")
        fill(primary, 3)
        primary.checkpoint()
        fill(primary, 5, start=3)
        primary.delete(1)
        primary.delete(4)
        primary.flush()
        with primary_server(primary) as (host, port, _publisher):
            root = tmp_path / "replica"
            applier = make_replica(
                host,
                port,
                root,
                max_batch_bytes=1,  # one record per fetch
                checkpoint_records=checkpoint_records,
            )
            applier.bootstrap()
            images = []
            while applier.lag_bytes() != 0:
                applier.step()
                images.append(
                    _replica_image(root, tmp_path / f"crash-{len(images)}")
                )
            assert len(images) >= 8, "the sweep must cover every record"
            assert_replica_matches(applier, primary)
            applier.stop()
            for image in images:
                revived = make_replica(host, port, image)
                revived.start()  # resume (or re-bootstrap) + tail
                try:
                    deadline = time.monotonic() + 20.0
                    while applier_lag(revived) != 0:
                        if time.monotonic() > deadline:
                            raise AssertionError(f"{image} never caught up")
                        time.sleep(0.02)
                    assert_replica_matches(revived, primary)
                finally:
                    revived.stop()
        primary.close()

    def test_torn_local_checkpoint_is_discarded_and_rebootstraps(self, tmp_path):
        primary = durable_primary(tmp_path / "primary")
        fill(primary, 6)
        primary.checkpoint()
        with primary_server(primary) as (host, port, _publisher):
            root = tmp_path / "replica"
            applier = make_replica(host, port, root)
            applier.bootstrap()
            applier.catch_up()
            applier.stop()  # writes the final local checkpoint
            blob = (root / "replica.pkl").read_bytes()
            (root / "replica.pkl").write_bytes(blob[: len(blob) // 2])
            revived = make_replica(host, port, root)
            assert revived.resume() is False
            revived.start()
            try:
                assert revived.bootstraps == 1
                assert_replica_matches(revived, primary)
            finally:
                revived.stop()
        primary.close()


def applier_lag(applier: ReplicaApplier):
    """Thread-safe lag probe tolerating the pre-first-fetch None."""
    lag = applier.lag_bytes()
    return -1 if lag is None else lag


def _run_replica_child(host: str, port: int, root: str) -> None:
    """Child process body: tail the primary with tiny batches so a
    SIGKILL lands mid-stream, checkpointing locally every record."""
    applier = ReplicaApplier(
        host,
        int(port),
        root=root,
        poll_interval=0.001,
        max_batch_bytes=1,
        checkpoint_records=1,
    )
    applier.start()
    while True:  # killed from outside
        time.sleep(0.5)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the SIGKILL test needs the POSIX fork start method",
)
class TestSigkilledReplica:
    def test_sigkilled_mid_replay_resumes_bit_identically(self, tmp_path):
        primary = durable_primary(tmp_path / "primary")
        fill(primary, 4)
        primary.checkpoint()
        with primary_server(primary) as (host, port, _publisher):
            root = tmp_path / "replica"
            ctx = multiprocessing.get_context("fork")
            child = ctx.Process(
                target=_run_replica_child, args=(host, port, str(root)), daemon=True
            )
            child.start()
            try:
                # Feed the stream while the child replays, then kill it
                # once its status file proves it is mid-stream.
                deadline = time.monotonic() + 30.0
                applied = 0
                while applied < 5:
                    fill(primary, 1, start=100 + applied)
                    status = read_replica_status(root)
                    applied = (status or {}).get("applied_records") or 0
                    if time.monotonic() > deadline:
                        raise AssertionError("the child replica never progressed")
                    time.sleep(0.01)
                os.kill(child.pid, signal.SIGKILL)
                child.join(timeout=10.0)
                assert not child.is_alive()
            finally:
                if child.is_alive():  # pragma: no cover - cleanup path
                    child.kill()
                    child.join(timeout=10.0)
            # More records the dead replica never saw.
            fill(primary, 3, start=200)
            revived = make_replica(host, port, root)
            resumed = revived.resume()
            if not resumed:  # killed inside a checkpoint write window
                revived.bootstrap()
            revived.catch_up()
            assert resumed, "per-record checkpoints should leave a resumable image"
            assert_replica_matches(revived, primary)
            revived.stop()
        primary.close()


# ----------------------------------------------------------------------
# Serving while applying
# ----------------------------------------------------------------------


class TestServeWhileApplying:
    def test_reads_never_fail_or_go_backwards_during_replay(self, tmp_path):
        primary = durable_primary(tmp_path / "primary")
        fill(primary, 4)
        with primary_server(primary) as (host, port, _publisher):
            applier = make_replica(host, port, tmp_path / "replica",
                                   service_config={"enable_cache": False, "workers": 2})
            applier.start()
            service = applier.service
            errors: list = []
            # One counts list PER reader: interleaving two threads'
            # appends into a shared list can record a phantom "shrink"
            # (older observation appended after a newer one) with no
            # real monotonicity violation.
            per_thread_counts: list = [[], []]
            stop = threading.Event()

            def reader(counts: list) -> None:
                try:
                    while not stop.is_set():
                        result = service.query(PROBES[2])
                        counts.append(len(result.answers))
                except BaseException as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            with service:
                threads = [
                    threading.Thread(target=reader, args=(counts,))
                    for counts in per_thread_counts
                ]
                for t in threads:
                    t.start()
                for start in range(4, 40, 4):
                    fill(primary, 4, start=start)
                    time.sleep(0.01)
                # Not ``lag_bytes() == 0``: lag is measured against the
                # primary position of the replica's *last fetch*, which a
                # fetch from before the final fill makes a stale zero.
                target = primary.stable_position
                deadline = time.monotonic() + 20.0
                while applier.lineage != (target["generation"], target["offset"]):
                    if time.monotonic() > deadline:
                        raise AssertionError("replica never caught up under load")
                    time.sleep(0.02)
                stop.set()
                for t in threads:
                    t.join(timeout=20.0)
            applier.stop()
            assert not errors, errors[:1]
            assert all(per_thread_counts), "readers must have made progress"
            # Inserts only: the probe's answer set can only grow, so a
            # shrink within one thread's observation sequence would mean
            # a torn/blended intermediate state.
            for counts in per_thread_counts:
                assert all(b >= a for a, b in zip(counts, counts[1:]))
            assert_replica_matches(applier, primary)
        primary.close()
