"""One stateful model of the composed write/read stack (ROADMAP 7(i)).

A hypothesis ``RuleBasedStateMachine`` drives ``QueryService`` over
``DurableSegmentedSealSearch`` — insert, delete (buffered and sealed
victims), flush, compact, checkpoint, close-and-recover, query — against
a dict of the acknowledged live set, with one invariant:

    every answer — in-process and as the encoded wire bytes — equals a
    from-scratch ``naive`` scan of the acknowledged live set under the
    engine's own weighter.

Run per ``buffer_capacity`` ∈ {2, 4} with the index tier boundary
patched to 0 (every segment gets the configured method), 6 (seals stay
light, some merges cross) and 10⁹ (nothing crosses), so every kind of
seal and merge happens inside hypothesis' step budget.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro import Query, Rect, SpatioTextualObject, build_method
from repro.exec import segments
from repro.exec.durable import DurableSegmentedSealSearch, recover
from repro.service import QueryService
from repro.service.protocol import decode_payload, result_from_wire

from tests.strategies import nonempty_token_sets, queries, rects

KNOBS = dict(granularity=8)

#: Asked after every step: vacuous thresholds reach every source, the
#: third filters on both axes.
PROBES = [
    Query(Rect(0.0, 0.0, 120.0, 120.0), frozenset({"t0", "t1", "t2"}), 0.0, 0.0),
    Query(Rect(10.0, 10.0, 60.0, 60.0), frozenset({"t3", "t4"}), 0.0, 0.2),
    Query(Rect(20.0, 20.0, 50.0, 50.0), frozenset({"t0", "t5", "t6"}), 0.05, 0.1),
]


class StackMachine(RuleBasedStateMachine):
    buffer_capacity = 2
    full_index_min_objects = 0

    def __init__(self) -> None:
        super().__init__()
        self.patched = segments.FULL_INDEX_MIN_OBJECTS
        segments.FULL_INDEX_MIN_OBJECTS = self.full_index_min_objects
        self.root = Path(tempfile.mkdtemp(prefix="seal-stack-"))
        self.wal, self.snapshot = self.root / "engine.wal", self.root / "engine.pkl"
        self.service = QueryService(DurableSegmentedSealSearch.create(
            (), "planned", wal_path=self.wal, snapshot_path=self.snapshot, sync="batch",
            buffer_capacity=self.buffer_capacity, merge_fanout=2, **KNOBS,
        ))
        #: The acknowledged live set: oid -> (region, tokens).
        self.model = {}
        self.next_oid = 0

    def teardown(self) -> None:
        self.service.engine.close()
        self.service.close()
        shutil.rmtree(self.root, ignore_errors=True)
        segments.FULL_INDEX_MIN_OBJECTS = self.patched

    def check(self, query: Query) -> None:
        live = sorted(self.model)
        scan = build_method(
            [SpatioTextualObject(i, *self.model[oid]) for i, oid in enumerate(live)],
            "naive", self.service.engine.weighter,
        )
        expected = [live[i] for i in scan.search(query).answers]
        assert self.service.query(query).answers == expected
        # The wire path: the cached entry's encoded bytes, once warm.
        members = self.service.query_wire(query)
        assert result_from_wire(decode_payload(b"{" + members + b"}")).answers == expected

    @property
    def pending(self) -> int:
        return self.service.engine.pending

    # -- mutations ------------------------------------------------------

    # One rule in ten would seldom fill a tier: insert in short bursts.
    @rule(pairs=st.lists(st.tuples(rects(), nonempty_token_sets), min_size=1, max_size=6))
    def insert(self, pairs):
        for region, tokens in pairs:
            assert self.service.insert(region, tokens) == self.next_oid
            self.model[self.next_oid] = (region, tokens)
            self.next_oid += 1

    # The buffer holds the newest ``pending`` live objects.
    @precondition(lambda self: self.pending)
    @rule(pick=st.integers(min_value=0))
    def delete_buffered(self, pick):
        victim = sorted(self.model)[-1 - pick % self.pending]
        assert self.service.delete(victim) is True
        del self.model[victim]

    @precondition(lambda self: len(self.model) > self.pending)
    @rule(pick=st.integers(min_value=0))
    def delete_sealed(self, pick):
        victim = sorted(self.model)[pick % (len(self.model) - self.pending)]
        assert self.service.delete(victim) is True
        del self.model[victim]

    @precondition(lambda self: self.next_oid)
    @rule(pick=st.integers(min_value=0))
    def delete_dead(self, pick):
        dead = sorted(set(range(self.next_oid + 1)) - set(self.model))
        assert self.service.delete(dead[pick % len(dead)]) is False

    @rule()
    def flush(self):
        self.service.apply(lambda engine: engine.flush())

    @rule()
    def compact(self):
        self.service.apply(lambda engine: engine.compact())

    # -- durability -----------------------------------------------------

    @rule()
    def checkpoint(self):
        self.service.checkpoint()

    @rule()
    def close_and_recover(self):
        before = self.service.engine
        layout = before.segment_sizes(), before.pending, before.tombstones, before.next_oid
        before.close()
        self.service.swap_engine(recover(self.snapshot, self.wal, sync="batch"))
        after = self.service.engine
        assert after is not before
        assert (after.segment_sizes(), after.pending, after.tombstones, after.next_oid) == layout

    # -- the invariant --------------------------------------------------

    @rule(query=queries())
    def query(self, query):
        self.check(query)

    @invariant()
    def answers_equal_the_oracle(self):
        assert len(self.service.engine) == len(self.model)
        for probe in PROBES:
            self.check(probe)


def _machine(buffer_capacity: int, full_index_min_objects: int):
    machine = type(
        f"Stack_capacity{buffer_capacity}_tier{full_index_min_objects}",
        (StackMachine,),
        dict(buffer_capacity=buffer_capacity, full_index_min_objects=full_index_min_objects),
    )
    case = machine.TestCase
    case.settings = settings(max_examples=12, stateful_step_count=30, deadline=None)
    return case


TestCapacity2EveryTierFull = _machine(2, 0)
TestCapacity2MergesCross = _machine(2, 6)
TestCapacity2NeverFull = _machine(2, 10**9)
TestCapacity4EveryTierFull = _machine(4, 0)
TestCapacity4MergesCross = _machine(4, 6)
TestCapacity4NeverFull = _machine(4, 10**9)
