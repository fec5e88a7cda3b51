"""An index build that raises loses nothing.

A seal, a tier merge and a compaction each replace engine state with a
freshly built segment.  ``build_method`` can raise there (memory, a bug
in one method's build) — and when it does, the operation must not have
happened: same live set, same buffer, same segments, same tombstones,
same answers, and the retried operation succeeds.  Through the
durability layer the failed operation's log record is rolled back, so a
crash right after the failure recovers the pre-failure engine.

(Reproduced at the parent: ``_seal_buffer`` detached the buffer before
building, so a failing 4th insert left four live objects in no source.)
"""

from __future__ import annotations

import shutil

import pytest

from repro import Query, Rect, SegmentedSealSearch, SpatioTextualObject, build_method
from repro.exec import segments
from repro.exec.durable import recover
from repro.exec.pipeline import execute_query
from repro.io.wal import read_wal

from tests.durable_testlib import make_durable, snapshot_of, wal_of

PROBES = [
    Query(Rect(0.0, 0.0, 30.0, 6.0), frozenset({"coffee"}), 0.01, 0.0),
    Query(Rect(2.0, 0.0, 9.0, 3.0), frozenset({"coffee", "tag1"}), 0.05, 0.1),
    Query(Rect(0.0, 0.0, 30.0, 30.0), frozenset({"tag0", "tag2"}), 0.0, 0.2),
]


def obj(i: int):
    return Rect(i, 0, i + 2, 2), {"coffee", f"tag{i % 3}"}


def raw(engine) -> SegmentedSealSearch:
    return getattr(engine, "engine", engine)


def state(engine):
    return {
        "len": len(engine),
        "pending": engine.pending,
        "segment_sizes": engine.segment_sizes(),
        "tombstones": engine.tombstones,
        "next_oid": engine.next_oid,
        "live": sorted(raw(engine)._live),
        "compactions": engine.compactions,
        "answers": [engine.search_query(query).answers for query in PROBES],
    }


def assert_matches_oracle(engine) -> None:
    """Every answer ≡ a from-scratch build over the live set."""
    live = [raw(engine)._live[oid] for oid in sorted(raw(engine)._live)]
    local = [SpatioTextualObject(i, o.region, o.tokens) for i, o in enumerate(live)]
    oracle = build_method(local, "token", engine.weighter) if local else None
    for query in PROBES:
        expected = (
            sorted(live[i].oid for i in execute_query(oracle, query).answers) if oracle else []
        )
        assert engine.search_query(query).answers == expected


def _seal_by_insert(engine):
    """Three buffered objects; the fourth insert fills the buffer."""
    for i in range(3):
        engine.insert(*obj(i))
    return lambda: engine.insert(*obj(3)), 1, {"len": 4, "pending": 0, "segment_sizes": [4]}


def _seal_by_flush(engine):
    for i in range(3):
        engine.insert(*obj(i))
    return engine.flush, 1, {"len": 3, "pending": 0, "segment_sizes": [3]}


def _tier_merge(engine):
    """One sealed segment with a tombstone; the insert that seals the
    second one triggers the tier merge — the *second* build of the op."""
    for i in range(7):
        engine.insert(*obj(i))
    engine.delete(1)
    assert engine.segment_sizes() == [4] and engine.pending == 3 and engine.tombstones == 1
    return (
        lambda: engine.insert(*obj(7)),
        2,
        {"len": 7, "pending": 0, "segment_sizes": [7], "tombstones": 0},
    )


def _compact(engine):
    for i in range(10):
        engine.insert(*obj(i))
    engine.delete(0)
    engine.delete(9)
    assert engine.num_segments == 1 and engine.pending == 1 and engine.tombstones == 1
    return engine.compact, 1, {"len": 8, "pending": 0, "segment_sizes": [8], "tombstones": 0}


SCENARIOS = {
    "seal-by-insert": _seal_by_insert,
    "seal-by-flush": _seal_by_flush,
    "tier-merge": _tier_merge,
    "compact": _compact,
}


def fail_nth_build(monkeypatch, nth: int):
    """Patch the segmented engine's ``build_method`` to raise on its
    ``nth`` call from now on, once."""
    real = segments.build_method
    calls = []

    def build(*args, **kwargs):
        calls.append(args[1])
        if len(calls) == nth:
            raise MemoryError("index build failed")
        return real(*args, **kwargs)

    monkeypatch.setattr(segments, "build_method", build)
    return calls


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_failed_build_changes_nothing_and_the_retry_succeeds(scenario, monkeypatch):
    engine = SegmentedSealSearch(method="token", buffer_capacity=4, merge_fanout=2)
    operation, failing_build, after = SCENARIOS[scenario](engine)
    before = state(engine)
    calls = fail_nth_build(monkeypatch, failing_build)
    with pytest.raises(MemoryError, match="index build failed"):
        operation()
    assert len(calls) == failing_build
    assert state(engine) == before
    assert_matches_oracle(engine)
    operation()  # the one failure is spent: the retry goes through
    assert {key: value for key, value in state(engine).items() if key in after} == after
    assert_matches_oracle(engine)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_failed_build_through_the_durable_engine(scenario, monkeypatch, tmp_path):
    """recovered ≡ pre-failure ≡ oracle: the failed operation's record is
    rolled back off the log, and the engine really did not move."""
    root = tmp_path / "live"
    root.mkdir()
    engine = make_durable(root, buffer_capacity=4, merge_fanout=2)
    operation, failing_build, after = SCENARIOS[scenario](engine)
    before = state(engine)
    logged = len(list(read_wal(wal_of(root)).operations()))
    fail_nth_build(monkeypatch, failing_build)
    with pytest.raises(MemoryError):
        operation()
    assert state(engine) == before
    assert_matches_oracle(engine)
    assert len(list(read_wal(wal_of(root)).operations())) == logged
    # A crash right here recovers exactly the pre-failure engine.
    image = tmp_path / "crash"
    shutil.copytree(root, image)
    recovered = recover(snapshot_of(image), wal_of(image))
    assert state(recovered) == before
    assert_matches_oracle(recovered)
    recovered.close()
    # And the live engine carries on: retry, then recover that too.
    operation()
    assert {key: value for key, value in state(engine).items() if key in after} == after
    assert_matches_oracle(engine)
    final = state(engine)
    engine.close()
    recovered = recover(snapshot_of(root), wal_of(root))
    assert state(recovered) == final
    recovered.close()


def test_knob_the_method_rejects_fails_at_construction_not_at_the_first_seal(monkeypatch):
    """The reproduction from the issue: the engine used to construct fine
    and blow up inside the 4th insert's seal."""
    from repro.core.errors import ConfigurationError

    # About the tier that builds the configured method, at this size.
    monkeypatch.setattr(segments, "FULL_INDEX_MIN_OBJECTS", 0)

    with pytest.raises(ConfigurationError, match="'token'.*'granularity'"):
        SegmentedSealSearch(method="token", buffer_capacity=4, granularity=16)
    with pytest.raises(ConfigurationError, match="unknown method 'tokn'"):
        SegmentedSealSearch(method="tokn")
    # What the method does accept still reaches every segment build.
    engine = SegmentedSealSearch(method="grid", buffer_capacity=2, granularity=4)
    for i in range(4):
        engine.insert(*obj(i))
    assert [m.granularity for m in engine.segment_methods()] == [4, 4]
