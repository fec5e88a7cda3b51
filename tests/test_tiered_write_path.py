"""The write path that stops rebuilding: tier rule and append-only buffer.

* **Size-tiered indexing** changes which index a segment gets and
  nothing else: one op script replayed with the tier boundary patched to
  0, 6, its default and 10⁹ assigns the same oids, builds the same
  layout and gives the same answers, each ≡ the oracle — through the
  bare engine, the durable engine (recovered ≡ pre-close) and a replica.
* **The append-only buffer scan** always equals a fresh ``NaiveSearch``
  over the buffer: after every insert, after a buffered delete, after a
  compaction swaps the weighter, through the bootstrap phase and after a
  failed seal takes an insert back.
* **Ratio guard**: sealing a full default buffer costs about one
  ``token`` build, so the seal stall cannot silently return.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import (
    NaiveSearch,
    Query,
    Rect,
    SegmentedSealSearch,
    SpatioTextualObject,
    TokenWeighter,
    build_method,
)
from repro.datasets import generate_twitter
from repro.exec import segments
from repro.exec.durable import recover
from repro.exec.pipeline import execute_query

from tests.durable_testlib import make_durable, snapshot_of, wal_of
from tests.test_failed_builds import fail_nth_build, obj
from tests.test_replication import make_replica, primary_server
from tests.test_verification import token_rows

KNOBS = dict(granularity=4)
TIER_BOUNDARIES = [0, 6, None, 10**9]  # None: the shipped constant

PROBES = [
    Query(Rect(0.0, 0.0, 60.0, 6.0), frozenset({"coffee"}), 0.0, 0.0),
    Query(Rect(2.0, 0.0, 9.0, 3.0), frozenset({"coffee", "tag1"}), 0.05, 0.1),
    Query(Rect(0.0, 0.0, 30.0, 30.0), frozenset({"tag0", "tag2"}), 0.0, 0.2),
    Query(Rect(10.0, 0.0, 14.0, 2.0), frozenset({"tag1"}), 0.3, 0.0),
]


def run_script(engine) -> list:
    """Seals, merges below and across a boundary of 6, a buffered and
    two sealed deletes, a compaction mid-way; returns the oids."""
    oids = [engine.insert(*obj(i)) for i in range(11)]
    assert engine.delete(10) and engine.delete(1)        # buffered, sealed
    oids += [engine.insert(*obj(i)) for i in range(11, 19)]
    engine.compact()
    oids += [engine.insert(*obj(i)) for i in range(19, 30)]
    assert engine.delete(20)                             # sealed
    engine.flush()
    oids += [engine.insert(*obj(i)) for i in range(30, 33)]
    return oids


def observe(engine) -> dict:
    return {
        "answers": [engine.search_query(query).answers for query in PROBES],
        "segment_sizes": engine.segment_sizes(),
        "pending": engine.pending,
        "tombstones": engine.tombstones,
        "built": [s["method"] for s in engine.snapshot_manifest()["segments"]],
    }


def oracle_answers(engine) -> list:
    raw = getattr(engine, "engine", engine)
    live = [raw._live[oid] for oid in sorted(raw._live)]
    scan = NaiveSearch(
        [SpatioTextualObject(i, o.region, o.tokens) for i, o in enumerate(live)], raw.weighter
    )
    return [[live[i].oid for i in scan.search(query).answers] for query in PROBES]


def _bare(tmp_path):
    engine = SegmentedSealSearch(method="grid", buffer_capacity=2, merge_fanout=2, **KNOBS)
    oids = run_script(engine)
    return oids, observe(engine), oracle_answers(engine)


def _durable(tmp_path):
    """Recovered ≡ pre-close, layout and built indexes included."""
    engine = make_durable(tmp_path, method="grid", buffer_capacity=2, merge_fanout=2, **KNOBS)
    oids = run_script(engine)
    before = observe(engine)
    engine.close()
    recovered = recover(snapshot_of(tmp_path), wal_of(tmp_path))
    try:
        assert observe(recovered) == before
        return oids, before, oracle_answers(recovered)
    finally:
        recovered.close()


def _replica(tmp_path):
    """A replica that replays the shipped log ≡ the primary."""
    root = tmp_path / "primary"
    root.mkdir()
    primary = make_durable(root, method="grid", buffer_capacity=2, merge_fanout=2, **KNOBS)
    try:
        with primary_server(primary) as (host, port, _publisher):
            applier = make_replica(host, port, tmp_path / "replica")
            applier.bootstrap()
            oids = run_script(primary)
            applier.catch_up()
            with applier.service.reading() as (engine, _epoch):
                seen = observe(engine)
            applier.stop()
        assert seen == observe(primary)
        return oids, seen, oracle_answers(primary)
    finally:
        primary.close()


@pytest.mark.parametrize("path", [_bare, _durable, _replica])
def test_tier_boundary_moves_the_built_index_and_nothing_else(path, tmp_path, monkeypatch):
    runs = {}
    for boundary in TIER_BOUNDARIES:
        if boundary is not None:
            monkeypatch.setattr(segments, "FULL_INDEX_MIN_OBJECTS", boundary)
        root = tmp_path / str(boundary)
        root.mkdir()
        oids, seen, oracle = path(root)
        assert seen["answers"] == oracle
        assert any(seen["answers"])
        runs[boundary] = oids, {key: value for key, value in seen.items() if key != "built"}
        sizes, built = seen["segment_sizes"], seen["built"]
        threshold = segments.FULL_INDEX_MIN_OBJECTS
        assert built == ["grid" if size >= threshold else "token" for size in sizes]
        monkeypatch.undo()
    assert all(run == runs[None] for run in runs.values())
    assert runs[None][0] == list(range(33))
    # The script does reach both sides of the middle boundary.
    assert min(runs[6][1]["segment_sizes"]) < 6 <= max(runs[6][1]["segment_sizes"])


def test_a_snapshot_of_fully_indexed_small_segments_recovers(tmp_path, monkeypatch):
    """What the parent commit wrote: every small segment carries the
    configured index, and the pickled engine has a ``_buffer_method``
    slot and no ``_scan``.  It recovers to ≡ oracle; its segments keep
    their indexes until a merge rebuilds them under the tier rule."""
    def parent_state(self):
        state = dict(self.__dict__)
        state.pop("_scan", None)
        state["_buffer_method"] = None
        return state

    with monkeypatch.context() as parent:
        parent.setattr(segments, "FULL_INDEX_MIN_OBJECTS", 0)
        parent.setattr(SegmentedSealSearch, "__getstate__", parent_state)
        engine = make_durable(tmp_path, method="grid", buffer_capacity=4, merge_fanout=4, **KNOBS)
        for i in range(9):
            engine.insert(*obj(i))
        engine.checkpoint()
        assert observe(engine)["built"] == ["grid", "grid"]
    for i in range(9, 13):                      # the WAL tail seals under the rule
        engine.insert(*obj(i))
    engine.close()
    recovered = recover(snapshot_of(tmp_path), wal_of(tmp_path))
    try:
        seen = observe(recovered)
        assert seen["built"] == ["grid", "grid", "token"]
        assert seen["answers"] == oracle_answers(recovered)
        for i in range(13, 17):                 # fourth tier-0 segment: merge
            recovered.insert(*obj(i))
        seen = observe(recovered)
        assert (seen["segment_sizes"], seen["built"]) == ([16], ["token"])
        assert seen["answers"] == oracle_answers(recovered)
    finally:
        recovered.close()


# ----------------------------------------------------------------------
# The append-only buffer scan
# ----------------------------------------------------------------------

CORPUS = generate_twitter(120, seed=5)
SCAN_PROBES = [
    Query(Rect(0.0, 0.0, 1e6, 1e6), frozenset(CORPUS[0].tokens), 0.0, 0.1),
    Query(CORPUS[40].region, frozenset(CORPUS[40].tokens), 0.3, 0.3),
    Query(CORPUS[70].region.scale(1.5), frozenset(CORPUS[71].tokens), 0.05, 0.0),
]


def assert_scan_is_fresh(engine) -> None:
    """The kept scan state ≡ a ``NaiveSearch`` built now over the buffer."""
    buffer = engine._buffer
    if not buffer:
        assert engine._sources() == engine._segments
        return
    scan = engine._buffer_scan()
    fresh = NaiveSearch(
        [SpatioTextualObject(i, o.region, o.tokens) for i, o in enumerate(buffer)],
        engine.weighter,
    )
    verifier = scan.method.verifier
    assert scan.to_global == [o.oid for o in buffer]
    assert list(verifier.corpus) == list(fresh.corpus)
    assert verifier.weighter is engine.weighter
    for query in SCAN_PROBES:
        assert execute_query(scan.method, query).answers == fresh.search(query).answers
    assert verifier._token_totals == fresh.verifier._token_totals
    assert np.array_equal(verifier._boxes[:, : len(buffer)], fresh.verifier._boxes)
    assert token_rows(verifier) == token_rows(fresh.verifier)



def test_scan_state_survives_inserts_and_equals_a_fresh_scan():
    pairs = [(o.region, o.tokens) for o in CORPUS]
    engine = SegmentedSealSearch(pairs[:20], "token", buffer_capacity=None)
    engine.insert(*pairs[20])
    kept = engine._buffer_scan()
    for pair in pairs[21:100]:                   # box block and CSR grow
        engine.insert(*pair)
        assert engine._buffer_scan() is kept
        assert_scan_is_fresh(engine)
    verifier = kept.method.verifier
    assert verifier._boxes.shape[1] > engine.pending  # spare capacity
    assert len(verifier._token_rows[2]) > engine.pending + 1
    # Buffered objects carry tokens the sealed segment's weighter never saw.
    assert any(t not in engine.weighter for o in engine._buffer for t in o.tokens)

    assert engine.delete(engine._buffer[3].oid)  # a buffered delete shifts local ids
    assert engine._buffer_scan() is not kept
    assert_scan_is_fresh(engine)
    assert engine.delete(5) and engine.tombstones == 1   # a sealed one shifts nothing
    kept = engine._buffer_scan()
    engine.insert(*pairs[100])
    assert engine._buffer_scan() is kept
    assert_scan_is_fresh(engine)

    before = engine.weighter
    engine.compact()                             # swaps the weighter, empties the buffer
    assert engine.weighter is not before
    assert_scan_is_fresh(engine)
    for pair in pairs[101:110]:
        engine.insert(*pair)
        assert_scan_is_fresh(engine)


def test_scan_state_follows_the_bootstrap_phase_weighter():
    """No sealed segment: every mutation replaces the weighter, and the
    same rebuild branch keeps the scan computed against the current one."""
    engine = SegmentedSealSearch(method="token", buffer_capacity=None)
    for o in CORPUS[:40]:
        engine.insert(o.region, o.tokens)
        assert_scan_is_fresh(engine)
        assert engine._buffer_scan().method.verifier.weighter.total_weight(o.tokens) == (
            TokenWeighter(b.tokens for b in engine._buffer).total_weight(o.tokens)
        )
    assert engine.delete(7)
    assert_scan_is_fresh(engine)


@pytest.mark.parametrize("bootstrap", [True, False])
def test_failed_seal_leaves_the_scan_state_without_the_insert(bootstrap, monkeypatch):
    pairs = [(o.region, o.tokens) for o in CORPUS]
    engine = SegmentedSealSearch(
        [] if bootstrap else pairs[:10], "token", buffer_capacity=36, merge_fanout=8
    )
    for pair in pairs[10:45]:
        engine.insert(*pair)
    assert_scan_is_fresh(engine)
    before = [engine.search_query(query).answers for query in SCAN_PROBES]
    fail_nth_build(monkeypatch, 1)
    with pytest.raises(MemoryError):
        engine.insert(*pairs[45])
    assert engine.pending == 35
    assert_scan_is_fresh(engine)
    assert [engine.search_query(query).answers for query in SCAN_PROBES] == before
    engine.insert(*pairs[45])                    # the retry seals
    assert engine.pending == 0
    engine.insert(*pairs[46])
    assert_scan_is_fresh(engine)


def test_pickling_drops_the_scan_state():
    import pickle

    engine = SegmentedSealSearch(
        [(o.region, o.tokens) for o in CORPUS[:10]], "token", buffer_capacity=None
    )
    engine.insert(CORPUS[10].region, CORPUS[10].tokens)
    engine.search_query(SCAN_PROBES[0])
    assert engine._scan is not None and "_scan" not in engine.__getstate__()
    clone = pickle.loads(pickle.dumps(engine))
    assert clone._scan is None
    assert_scan_is_fresh(clone)


# ----------------------------------------------------------------------
# Ratio guard: a seal costs about one light build
# ----------------------------------------------------------------------

MAX_SEAL_OVER_TOKEN_BUILD = 3.0


def test_sealing_a_default_buffer_costs_about_one_token_build():
    """Measured 1.0-1.1; building the configured ``planned`` engine
    (``token`` + ``grid``) over the same 256 objects instead reads 2.0
    (17 while it built four members)."""
    corpus = generate_twitter(1024, seed=17)
    pairs = [(o.region, o.tokens) for o in corpus]
    base, buffered = pairs[:256], corpus[256:512]
    best_seal = best_token = float("inf")
    for _ in range(3):
        engine = SegmentedSealSearch(base, "planned", buffer_capacity=None, merge_fanout=8)
        for o in buffered:
            engine.insert(o.region, o.tokens)
        begin = time.perf_counter()
        engine.flush()
        best_seal = min(best_seal, time.perf_counter() - begin)
        assert engine.segment_sizes() == [256, 256]
        local = [SpatioTextualObject(i, o.region, o.tokens) for i, o in enumerate(buffered)]
        begin = time.perf_counter()
        build_method(local, "token", engine.weighter)
        best_token = min(best_token, time.perf_counter() - begin)
    assert best_seal / best_token <= MAX_SEAL_OVER_TOKEN_BUILD, (
        f"sealing 256 objects took {best_seal * 1e3:.1f} ms, "
        f"{best_seal / best_token:.1f}x a token build ({best_token * 1e3:.1f} ms; "
        f"budget {MAX_SEAL_OVER_TOKEN_BUILD}x)"
    )
