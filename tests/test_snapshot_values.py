"""Objects as plain values: ``Rect`` edges, pickling by ``__reduce__``,
and what an engine snapshot holds per object.

A ``Rect`` stores a NumPy scalar edge as ``float(edge)`` and keeps
``float``/``int`` edges as given; ``Rect``, ``SpatioTextualObject`` and
the R-tree's ``Entry`` pickle as one constructor call over their fields.
So a snapshot names no NumPy global and restores no object by ``BUILD``;
a snapshot holding a value a constructor refuses is a typed
``SnapshotError``; and a format-9 snapshot that stores objects as their
dataclass state (``tests/fixtures/snapshot_format9.pkl``) still loads.
"""

from __future__ import annotations

import copy
import pickle
import pickletools
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro import Query, Rect, SegmentedSealSearch, SpatioTextualObject, build_method
from repro.core.engine import METHOD_REGISTRY
from repro.datasets import generate_twitter
from repro.exec.durable import recover
from repro.index.inverted import externalize_arrays
from repro.io.snapshot import SnapshotError, load_engine, save_engine
from repro.io.wal import read_wal
from repro.rtree.tree import Entry, RTree
from repro.service.protocol import query_frame

from tests.durable_testlib import make_durable, snapshot_of, wal_of
from tests.fixtures import make_snapshot_format9 as fixture
from tests.test_verifier_columns import columns_from_objects, held_columns, verifiers

#: The classes a snapshot holds once per object.
VALUE_TYPES = {
    "repro.geometry.rect.Rect",
    "repro.core.objects.SpatioTextualObject",
    "repro.rtree.tree.Entry",
}


def pickled_shape(blob: bytes) -> tuple[set, set]:
    """``(globals, built)`` of a pickle: every ``module.name`` global it
    names, and the classes whose instances it restores by ``BUILD``.

    Walks :func:`pickletools.genops` with a symbolic stack that tracks
    only globals and the instances made from them."""
    mark = object()
    stack: list = []
    memo: dict = {}
    named: set = set()
    built: set = set()
    for op, arg, _ in pickletools.genops(blob):
        name = op.name
        if name in ("SHORT_BINUNICODE", "BINUNICODE", "BINUNICODE8", "UNICODE"):
            stack.append(arg)
        elif name in ("GLOBAL", "STACK_GLOBAL"):
            if name == "GLOBAL":
                module, attr = arg.split(" ")
            else:
                attr, module = stack.pop(), stack.pop()
            named.add(f"{module}.{attr}")
            stack.append(("global", f"{module}.{attr}"))
        elif name == "MEMOIZE":
            memo[len(memo)] = stack[-1]
        elif name in ("PUT", "BINPUT", "LONG_BINPUT"):
            memo[arg] = stack[-1]
        elif name in ("GET", "BINGET", "LONG_BINGET"):
            stack.append(memo[arg])
        elif name in ("NEWOBJ", "REDUCE", "NEWOBJ_EX"):
            del stack[-(3 if name == "NEWOBJ_EX" else 2) + 1:]
            maker = stack.pop()
            kind = maker[1] if isinstance(maker, tuple) and maker[0] == "global" else None
            stack.append(("instance", kind))
        elif name == "BUILD":
            stack.pop()
            target = stack[-1]
            if isinstance(target, tuple) and target[0] == "instance":
                built.add(target[1])
        elif name == "MARK":
            stack.append(mark)
        else:
            before, after = op.stack_before, op.stack_after
            if pickletools.markobject in before:
                while stack.pop() is not mark:
                    pass
                before = before[: before.index(pickletools.markobject)]
            consumed = [stack.pop() for _ in before][::-1]
            # APPENDS, SETITEMS, ADDITEMS: the container stays in place.
            keep = bool(after) and bool(before) and after[0] is before[0]
            stack.extend(consumed[:1] if keep else [None] * len(after))
    return named, built


def engine_blob(engine) -> bytes:
    """The engine blob ``save_engine`` writes (arrays externalised)."""
    with externalize_arrays([]):
        return pickle.dumps(engine, protocol=pickle.HIGHEST_PROTOCOL)


def assert_plain(blob: bytes) -> None:
    named, built = pickled_shape(blob)
    assert not [name for name in named if name.split(".")[0] == "numpy"]
    assert not built & VALUE_TYPES


def work(result) -> tuple:
    """A result's answers and every counter but the timers, per source too."""
    stats = result.stats
    return (
        list(result.answers), stats.lists_probed, stats.entries_retrieved,
        stats.entries_matched, stats.candidates, stats.results, stats.method,
        [work_of_stats(source) for source in stats.per_source],
    )


def work_of_stats(stats) -> tuple:
    return (stats.lists_probed, stats.entries_retrieved, stats.entries_matched,
            stats.candidates, stats.results, stats.method)


class TestRectEdges:
    @pytest.mark.parametrize("scalar", [np.float64, np.float32, np.int64])
    def test_numpy_edges_are_stored_as_floats(self, scalar):
        edges = (scalar(1), scalar(2.5), scalar(3), scalar(4.25))
        rect = Rect(*edges)
        assert all(type(edge) is float for edge in rect)
        plain = Rect(*map(float, edges))
        assert rect.as_tuple() == tuple(edges) == plain.as_tuple()
        assert rect == plain and hash(rect) == hash(plain)

    def test_int_edges_are_kept_and_encode_as_before(self):
        rect = Rect(0, 0, 2, 2)
        assert all(type(edge) is int for edge in rect)
        frame = query_frame(Query(rect, frozenset({"tea", "coffee"}), 0.5, 0.25))
        assert frame == (
            b'\x00\x00\x00T{"op":"query","region":[0,0,2,2],'
            b'"tokens":["coffee","tea"],"tau_r":0.5,"tau_t":0.25}'
        )

    @pytest.mark.parametrize(
        "edges",
        [(float("nan"), 0, 1, 1), (0, np.float64("nan"), 1, 1), (2, 0, 1, 1),
         (np.int64(0), np.int64(2), np.int64(1), np.int64(1))],
        ids=["nan", "numpy-nan", "inverted", "numpy-inverted"],
    )
    def test_impossible_edges_still_raise(self, edges):
        with pytest.raises(ValueError):
            Rect(*edges)

    def test_string_edge_still_raises(self):
        with pytest.raises(TypeError):
            Rect("0", 0, 1, 1)

    def test_copies_and_pickles_are_equal(self):
        rect = Rect(np.float64(0.5), 1, 2, 3)
        obj = SpatioTextualObject(4, rect, frozenset({"tea"}))
        for value in (rect, obj, Entry(rect, oid=4)):
            blob = pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
            for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(blob)):
                assert twin == value and type(twin) is type(value)
            assert_plain(blob)

    def test_rtree_round_trips(self):
        tree = RTree.bulk_load(
            [(Rect(i, i, i + np.float64(2), i + 2), i) for i in range(10)], max_entries=3
        )
        twin = pickle.loads(pickle.dumps(tree, pickle.HIGHEST_PROTOCOL))
        query = Rect(2, 2, 6, 6)
        assert sorted(twin.search_min_overlap(query, 0.5)) == sorted(
            tree.search_min_overlap(query, 0.5)
        )
        assert_plain(pickle.dumps(tree, pickle.HIGHEST_PROTOCOL))


class TestDurableEdges:
    def test_numpy_int_edges_log_replay_and_answer_like_floats(self, tmp_path):
        """An ``np.int64``-edged insert logs the float edges (the JSON
        encoder refuses NumPy integers) and replays after ``recover``."""
        roots = {"numpy": tmp_path / "numpy", "float": tmp_path / "float"}
        edge = {"numpy": np.int64, "float": float}
        for kind, root in roots.items():
            root.mkdir()
            engine = make_durable(root)
            for i in range(9):
                engine.insert(Rect(edge[kind](i), edge[kind](0), edge[kind](i + 2),
                                   edge[kind](2)), {"coffee", f"tag{i % 3}"})
            engine.close()
        logged = {
            kind: [record.payload for record in read_wal(wal_of(root)).operations()]
            for kind, root in roots.items()
        }
        assert logged["numpy"] == logged["float"]
        assert logged["numpy"][0]["region"] == [0.0, 0.0, 2.0, 2.0]
        queries = [Query(Rect(1, 0, 4, 2), frozenset({"coffee", "tag1"}), tau_r, tau_t)
                   for tau_r, tau_t in ((0.1, 0.1), (0.0, 0.5), (0.4, 0.0))]
        answers = {}
        for kind, root in roots.items():
            recovered = recover(snapshot_of(root), wal_of(root))
            try:
                answers[kind] = [work(recovered.search_query(query)) for query in queries]
            finally:
                recovered.close()
        assert answers["numpy"] == answers["float"]
        assert any(row[0] for row in answers["numpy"])

    def test_int_edge_insert_record_is_unchanged(self, tmp_path):
        engine = make_durable(tmp_path)
        engine.insert(Rect(0, 0, 2, 2), {"tea"})
        engine.close()
        (record,) = read_wal(wal_of(tmp_path)).operations()
        assert record.payload == {"op": "insert", "oid": 0, "region": [0, 0, 2, 2],
                                  "tokens": ["tea"]}
        assert all(type(edge) is int for edge in record.payload["region"])


@pytest.fixture(scope="module")
def twitter_objects():
    return generate_twitter(420, seed=5, space=Rect(0.0, 0.0, 750.7, 750.7),
                            num_clusters=4, cluster_spread_fraction=0.002)


class TestSnapshotHoldsPlainValues:
    """No registry method's snapshot, nor a churned segmented engine's,
    names a NumPy global or restores an object by ``BUILD``."""

    @pytest.mark.parametrize("name", sorted(METHOD_REGISTRY))
    def test_registry_method(self, twitter_objects, name):
        assert_plain(engine_blob(build_method(twitter_objects, name)))

    def test_churned_segmented_planned_engine(self, twitter_objects):
        pairs = [(obj.region, obj.tokens) for obj in twitter_objects]
        engine = SegmentedSealSearch(pairs[:200], "planned", buffer_capacity=40)
        for region, tokens in pairs[200:]:
            engine.insert(region, tokens)
        for oid in (1, 205, 390):
            engine.delete(oid)
        manifest = engine.snapshot_manifest()
        assert len(manifest["segments"]) >= 3 and manifest["buffer"]
        assert manifest["tombstones"]
        assert_plain(engine_blob(engine))


class TestRefusedValues:
    """A snapshot holding a value a constructor refuses is a typed
    ``SnapshotError``, so whoever swaps engines keeps the live one."""

    @staticmethod
    def corrupt(engine, how: str) -> None:
        obj = engine.object(2)
        if how == "inverted-edge":
            object.__setattr__(obj.region, "x1", obj.region.x2 + 1.0)
        else:
            object.__setattr__(obj, "oid", -1)

    @pytest.mark.parametrize("how", ["inverted-edge", "negative-oid"])
    def test_load_engine_raises_snapshot_error(self, tmp_path, how):
        engine = SegmentedSealSearch(
            [(Rect(i, 0, i + 2, 2), {"tea"}) for i in range(6)], "token"
        )
        self.corrupt(engine, how)
        save_engine(engine, tmp_path / "engine.pkl")
        with pytest.raises(SnapshotError, match="corrupt or incompatible snapshot"):
            load_engine(tmp_path / "engine.pkl")

    def test_recover_raises_and_the_service_keeps_its_engine(self, tmp_path):
        from repro.service import QueryService

        engine = make_durable(tmp_path, buffer_capacity=4)
        for i in range(9):
            engine.insert(Rect(i, 0, i + 2, 2), {"coffee"})
        live = SegmentedSealSearch([(Rect(0, 0, 1, 1), {"coffee"})], "token")
        service = QueryService(live)
        self.corrupt(engine.engine, "inverted-edge")
        engine.checkpoint()
        engine.close()
        with pytest.raises(SnapshotError):
            service.swap_engine(recover(snapshot_of(tmp_path), wal_of(tmp_path)))
        assert service.engine is live

    def test_replica_resume_discards_it(self, tmp_path):
        from repro.service.replication import REPLICA_SNAPSHOT_NAME, ReplicaApplier

        engine = SegmentedSealSearch(
            [(Rect(i, 0, i + 2, 2), {"tea"}) for i in range(6)], "token"
        )
        self.corrupt(engine, "inverted-edge")
        save_engine(engine, tmp_path / REPLICA_SNAPSHOT_NAME,
                    wal_position={"generation": 0, "offset": 0})
        # Port 9 (discard) is never contacted: resume reads local files only.
        applier = ReplicaApplier("127.0.0.1", 9, root=tmp_path)
        assert applier.resume() is False


class TestFormat9Fixture:
    """``tests/fixtures/snapshot_format9.pkl`` (with its ``.npz``) was
    written by a library that pickled objects as their dataclass state,
    NumPy scalar edges included (see ``make_snapshot_format9.py``)."""

    FIXTURE = Path(__file__).parent / "fixtures" / "snapshot_format9.pkl"

    @pytest.fixture(scope="class")
    def expected(self):
        engine = fixture.build_engine()
        return [work(engine.search_query(query)) for query in fixture.workload()]

    def test_fixture_is_the_old_layout(self):
        envelope = pickle.loads(self.FIXTURE.read_bytes())
        named, built = pickled_shape(envelope["engine"])
        assert envelope["format"] == 9
        assert any(name.split(".")[0] == "numpy" for name in named)
        assert "repro.geometry.rect.Rect" in built

    @pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
    def test_loads_and_answers_as_a_fresh_engine(self, tmp_path, expected, mmap):
        for source in (self.FIXTURE, self.FIXTURE.with_name(self.FIXTURE.name + ".npz")):
            shutil.copy(source, tmp_path / source.name)
        engine = load_engine(tmp_path / self.FIXTURE.name, mmap=mmap)
        # Before the first query, every verifier holds the columns it
        # derived at load, around the token totals it was pickled with.
        for verifier in verifiers(engine):
            *held, totals = held_columns(verifier)
            assert held == list(columns_from_objects(verifier.corpus, verifier.weighter)[:-1])
            assert totals == verifier.token_totals()
        manifest = engine.snapshot_manifest()
        assert [segment["method"] for segment in manifest["segments"]] == ["planned", "token"]
        assert manifest["buffer"] and manifest["tombstones"]
        got = [work(engine.search_query(query)) for query in fixture.workload()]
        assert got == expected
        assert sum(1 for row in got if row[0]) >= len(got) // 3
        assert all(type(edge) is float for oid in (0, 199) for edge in engine.object(oid).region)
        assert_plain(engine_blob(engine))
