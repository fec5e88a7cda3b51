"""Crash-injection suite: kill the process at every ordering point.

A crash is simulated by copying the on-disk state (WAL + snapshot +
sidecar) into a fresh directory at a chosen instant — the copy is the
disk image a real kill would leave (the WAL runs ``sync="always"`` so
every acknowledged record has reached the file) — and recovering from
the copy.  The contract under test, from ISSUE 5:

    for every injected crash point, ``recover()`` yields an engine whose
    answers are identical to a from-scratch ``build_method`` oracle over
    the acknowledged live set, **or recovery fails loudly**.

Covered ordering points:

* after every single logged operation (the full op-boundary matrix);
* mid-WAL-record — the tail torn at *every byte* of the final record;
* between the checkpoint's snapshot save and its WAL truncation;
* between the sidecar and snapshot writes inside a checkpoint (the
  documented loud-failure window: stale snapshot + new sidecar);
* a property test: random insert/delete/flush/compact/checkpoint/crash
  interleavings ≡ the from-scratch oracle.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Query, Rect
from repro.exec.durable import recover
from repro.io.snapshot import SnapshotError, sidecar_path
from repro.io.wal import WriteAheadLog, read_wal

from tests.durable_testlib import make_durable, oracle_answers, snapshot_of, wal_of

PROBES = [
    Query(Rect(0.0, 0.0, 20.0, 6.0), frozenset({"coffee"}), 0.01, 0.0),
    Query(Rect(2.0, 0.0, 9.0, 3.0), frozenset({"coffee", "tag1"}), 0.05, 0.1),
    Query(Rect(0.0, 0.0, 30.0, 30.0), frozenset({"tag0", "tag2"}), 0.0, 0.2),
]


def make_engine(root, *, buffer_capacity=3, **params):
    return make_durable(root, buffer_capacity=buffer_capacity, **params)


def crash_image(source: Path, dest: Path) -> Path:
    """Copy the durable state as a kill at this instant would leave it."""
    dest.mkdir()
    for name in ("engine.pkl", "engine.pkl.npz", "engine.wal"):
        if (source / name).exists():
            shutil.copy2(source / name, dest / name)
    return dest


def assert_recovered_state(recovered, expected_state, *, method="token", **params):
    """The recovered engine matches the recorded pre-crash state and the
    from-scratch oracle over that live set."""
    answers, live_oids = expected_state
    assert sorted(recovered.engine._live) == live_oids
    for query, expected in zip(PROBES, answers):
        got = recovered.search_query(query).answers
        assert got == expected
        assert got == oracle_answers(recovered, query, method, **params)


def observed_state(engine):
    return (
        [engine.search_query(query).answers for query in PROBES],
        sorted(engine.engine._live),
    )


class TestKillAtEveryOperationBoundary:
    def test_recovery_matrix(self, tmp_path):
        """A scripted mixed workload; after every op a crash image is
        taken, and every image recovers to the exact pre-crash state."""
        root = tmp_path / "live"
        root.mkdir()
        engine = make_engine(root)
        script = (
            [("insert", i) for i in range(7)]
            + [("delete", 2), ("flush", None), ("insert", 7), ("delete", 0),
               ("checkpoint", None), ("insert", 8), ("insert", 9),
               ("compact", None), ("insert", 10), ("delete", 8)]
        )
        states = []
        for step, (op, arg) in enumerate(script):
            if op == "insert":
                engine.insert(Rect(arg, 0, arg + 2, 2), {"coffee", f"tag{arg % 3}"})
            elif op == "delete":
                engine.delete(arg)
            elif op == "flush":
                engine.flush()
            elif op == "compact":
                engine.compact()
            elif op == "checkpoint":
                engine.checkpoint()
            states.append(observed_state(engine))
            crash_image(root, tmp_path / f"crash-{step}")
        engine.close()
        for step in range(len(script)):
            image = tmp_path / f"crash-{step}"
            recovered = recover(snapshot_of(image), wal_of(image))
            assert_recovered_state(recovered, states[step])
            recovered.close()

    @pytest.mark.parametrize(
        "method, knobs", [("seal", {"mt": 8}), ("planned", {"granularity": 8})]
    )
    def test_recovery_matrix_on_hybrid_and_planned_segments(self, tmp_path, method, knobs):
        root = tmp_path / "live"
        root.mkdir()
        engine = make_engine(root, method=method, **knobs)
        states = []
        for i in range(8):
            engine.insert(Rect(i, 0, i + 2, 2), {"coffee", f"tag{i % 3}"})
            if i == 5:
                engine.delete(1)
            states.append(observed_state(engine))
            crash_image(root, tmp_path / f"crash-{i}")
        engine.close()
        for i in range(8):
            image = tmp_path / f"crash-{i}"
            recovered = recover(snapshot_of(image), wal_of(image))
            assert_recovered_state(recovered, states[i], method=method, **knobs)
            recovered.close()


class TestKillMidRecord:
    def test_torn_tail_at_every_byte_recovers_the_durable_prefix(self, tmp_path):
        """Truncate the WAL at every byte of its final records: recovery
        lands on the state after the last *complete* record."""
        root = tmp_path / "live"
        root.mkdir()
        engine = make_engine(root)
        states = [observed_state(engine)]  # state after k ops, k=0 first
        boundaries = [engine.wal.position]
        for i in range(5):
            engine.insert(Rect(i, 0, i + 2, 2), {"coffee", f"tag{i % 3}"})
            states.append(observed_state(engine))
            boundaries.append(engine.wal.position)
        engine.delete(3)
        states.append(observed_state(engine))
        boundaries.append(engine.wal.position)
        engine.close()
        blob = wal_of(root).read_bytes()
        assert len(blob) == boundaries[-1]
        for cut in range(boundaries[1], len(blob)):
            image = crash_image(root, tmp_path / f"cut-{cut}")
            wal_of(image).write_bytes(blob[:cut])
            complete = sum(1 for b in boundaries[1:] if b <= cut)
            recovered = recover(snapshot_of(image), wal_of(image))
            assert recovered.recovery["torn_bytes_dropped"] == cut - boundaries[complete]
            assert_recovered_state(recovered, states[complete])
            recovered.close()


class TestKillInsideCheckpoint:
    def test_crash_between_snapshot_save_and_wal_truncate(self, tmp_path, monkeypatch):
        """The snapshot is durably written but the WAL never reset: the
        checkpoint offset must prevent double-applying the prefix."""
        root = tmp_path / "live"
        root.mkdir()
        engine = make_engine(root)
        for i in range(6):
            engine.insert(Rect(i, 0, i + 2, 2), {"coffee", f"tag{i % 3}"})
        engine.delete(4)
        state = observed_state(engine)

        def crash(self, **kwargs):
            raise OSError("killed before WAL truncation")

        monkeypatch.setattr(WriteAheadLog, "reset", crash)
        with pytest.raises(OSError, match="killed"):
            engine.checkpoint()
        monkeypatch.undo()
        image = crash_image(root, tmp_path / "crash")
        # The WAL still holds every record; the snapshot already holds
        # the state.  Replay must start past the checkpoint offset.
        contents = read_wal(wal_of(image))
        assert len(contents.operations()) == 7
        recovered = recover(snapshot_of(image), wal_of(image))
        assert recovered.recovery["records_replayed"] == 0
        assert_recovered_state(recovered, state)
        recovered.close()
        engine.wal.close()

    def test_crash_between_sidecar_and_snapshot_write_fails_loudly(
        self, tmp_path, monkeypatch
    ):
        """Old snapshot + new sidecar is detected by the array
        fingerprints: recovery raises instead of serving wrong arrays."""
        pytest.importorskip("numpy")
        root = tmp_path / "live"
        root.mkdir()
        engine = make_engine(root, buffer_capacity=2)
        for i in range(4):
            engine.insert(Rect(i, 0, i + 2, 2), {"coffee", f"tag{i % 3}"})
        engine.checkpoint()
        # Grow the corpus so the next checkpoint's arrays differ in shape.
        for i in range(4, 11):
            engine.insert(Rect(i, 0, i + 2, 2), {"coffee", f"tag{i % 3}"})

        import repro.io.atomic as atomic_mod

        real_replace = atomic_mod.replace_durably

        def crash_on_snapshot(temp, target):
            if str(target).endswith(".pkl"):
                raise OSError("killed between sidecar and snapshot writes")
            return real_replace(temp, target)

        monkeypatch.setattr(atomic_mod, "replace_durably", crash_on_snapshot)
        with pytest.raises(OSError, match="between sidecar"):
            engine.checkpoint()
        monkeypatch.undo()
        image = crash_image(root, tmp_path / "crash")
        assert sidecar_path(snapshot_of(image)).exists()
        with pytest.raises(SnapshotError, match="fingerprints|rebuild the index"):
            recover(snapshot_of(image), wal_of(image))
        engine.wal.close()


class TestRandomizedCrashRecoveryProperty:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("insert"), st.integers(0, 30)),
                st.tuples(st.just("delete"), st.integers(0, 30)),
                st.tuples(st.just("flush"), st.none()),
                st.tuples(st.just("compact"), st.none()),
                st.tuples(st.just("checkpoint"), st.none()),
                st.tuples(st.just("crash-recover"), st.none()),
            ),
            min_size=1,
            max_size=24,
        ),
    )
    def test_random_interleavings_match_oracle(self, tmp_path_factory, seed, ops):
        root = tmp_path_factory.mktemp("wal-prop")
        engine = make_engine(root, buffer_capacity=4, sync="batch")
        inserted = 0
        try:
            for op, arg in ops:
                if op == "insert":
                    engine.insert(
                        Rect(arg % 13, (seed + arg) % 5, arg % 13 + 2, (seed + arg) % 5 + 2),
                        {"coffee", f"tag{arg % 4}"},
                    )
                    inserted += 1
                elif op == "delete":
                    engine.delete(arg % max(1, inserted))
                elif op == "flush":
                    engine.flush()
                elif op == "compact":
                    engine.compact()
                elif op == "checkpoint":
                    engine.checkpoint()
                else:  # crash-recover: sync (batch policy), drop, replay
                    engine.wal.sync()
                    state = observed_state(engine)
                    engine.close()
                    engine = recover(
                        snapshot_of(root), wal_of(root), sync="batch"
                    )
                    assert observed_state(engine) == state
            state = observed_state(engine)
            engine.wal.sync()
            engine.close()
            recovered = recover(snapshot_of(root), wal_of(root))
            try:
                assert observed_state(recovered) == state
                for query in PROBES:
                    assert recovered.search_query(query).answers == oracle_answers(
                        recovered, query, "token"
                    )
            finally:
                recovered.close()
        finally:
            if not engine.wal.closed:
                engine.close()
