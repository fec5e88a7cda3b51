"""Regions with an infinite edge.

A query region may be unbounded (the wire accepts ``Infinity``), and
every registry method answers such a query as ``naive`` does: a
grid-based ``probes`` makes it a full scan, since an unbounded extent
has no grid cells, and the exact verifier decides; at ``τR = 0`` the
spatial filter bound is 0, not the NaN of ``0·∞``.  A grid-based build
refuses a corpus region with an infinite edge up front, naming it,
whether its space is derived from the corpus or given; a segmented
engine configured with one refuses the region where it enters.
"""

from __future__ import annotations

import math
import warnings

import pytest

from repro.core.engine import METHOD_REGISTRY, build_method
from repro.core.errors import ConfigurationError
from repro.core.objects import Query, make_corpus
from repro.exec.pipeline import BatchExecutor
from repro.exec.segments import SegmentedSealSearch
from repro.geometry import Rect

INF = math.inf
CORPUS = [(Rect(0, 0, 1, 1), {"a"}), (Rect(2, 2, 3, 3), {"b"}), (Rect(0, 0, 3, 3), {"a", "b"})]
REGIONS = [Rect(0, 0, INF, 1), Rect(-INF, -INF, INF, INF), Rect(0, -INF, 1, 0.5), Rect(0, 0, INF, 0)]
#: ``(τR, τT)``.
TAUS = [(0.3, 0.0), (0.3, 0.5), (0.0, 0.5), (1e-300, 0.0)]
QUERIES = [
    Query(region, frozenset(tokens), tau_r, tau_t)
    for region in REGIONS for tau_r, tau_t in TAUS for tokens in ({"a"}, {"a", "b"})
]
GRID_METHODS = ["grid", "hash-hybrid", "planned", "seal"]


@pytest.mark.parametrize("method_name", sorted(METHOD_REGISTRY))
def test_unbounded_query_regions_answer_like_naive(method_name):
    objects = make_corpus(CORPUS)
    method = build_method(objects, method_name)
    naive = build_method(objects, "naive")
    expected = [naive.search(query).answers for query in QUERIES]
    assert [method.search(query).answers for query in QUERIES] == expected
    # The batched verifier sees each pair's own τR: at τR = 0 it skips
    # the spatial pass, as the single path does, so ``0·∞`` never runs.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [result.answers for result in BatchExecutor().run(method, QUERIES)] == expected


def test_irtree_keeps_every_overlap_at_zero_spatial_threshold():
    """``c_R = 0·∞`` was NaN, and no node or entry reached it."""
    query = Query(Rect(0, 0, INF, 1), frozenset({"a"}), 0.0, 0.5)
    assert build_method(make_corpus(CORPUS), "irtree").search(query).answers == [0, 2]


@pytest.mark.parametrize("space", [None, Rect(0, 0, 4, 4)], ids=["derived", "explicit"])
@pytest.mark.parametrize("method_name", GRID_METHODS)
def test_grid_builds_refuse_an_unbounded_region(method_name, space):
    objects = make_corpus(CORPUS + [(Rect(1, 1, INF, 2), {"a"})])
    params = {} if space is None else {"space": space}
    with pytest.raises(ConfigurationError, match=r"region 3 \(.*x2=inf.*\) is not finite"):
        build_method(objects, method_name, **params)


@pytest.mark.parametrize("method_name", GRID_METHODS)
def test_segmented_engine_refuses_an_unbounded_region_where_it_enters(method_name):
    """Below 2 048 objects a segment is a ``token`` index, which takes an
    unbounded region; the configured grid build, at the first compaction
    past that size, would refuse it every time.  So the engine refuses it
    at ``insert`` and in ``data``, with the grid build's own error."""
    engine = SegmentedSealSearch(CORPUS, method=method_name, buffer_capacity=2)
    def state():
        return len(engine), engine.next_oid, engine.search(REGIONS[1], {"a"}, 0.0, 0.5).answers

    before = state()
    with pytest.raises(ConfigurationError, match=r"region 0 \(.*x2=inf.*\) is not finite"):
        engine.insert(Rect(0, 0, INF, 1), {"a"})
    assert state() == before
    with pytest.raises(ConfigurationError, match=r"region 3 \(.*x2=inf.*\) is not finite"):
        SegmentedSealSearch(CORPUS + [(Rect(1, 1, INF, 2), {"a"})], method=method_name)


@pytest.mark.parametrize("method_name", ["token", "naive"])
def test_segmented_engine_without_a_grid_takes_an_unbounded_region(method_name):
    engine = SegmentedSealSearch(CORPUS, method=method_name, buffer_capacity=2)
    oid = engine.insert(Rect(0, 0, INF, 1), {"a"})
    engine.insert(Rect(1, 1, 2, 2), {"b"})
    engine.compact()
    query = Query(Rect(0, 0, 5, 5), frozenset({"a"}), 0.0, 0.5)
    assert oid in engine.search_query(query).answers


def test_durable_insert_of_an_unbounded_region_leaves_no_record(tmp_path):
    """The refusal comes before the engine moves, so the durable layer
    rolls its WAL record back: recovery replays nothing of it."""
    from repro.exec.durable import recover

    from tests.durable_testlib import make_durable, snapshot_of, wal_of

    engine = make_durable(tmp_path, method="planned")
    engine.insert(Rect(0, 0, 1, 1), {"a"})
    wal_before = wal_of(tmp_path).read_bytes()
    with pytest.raises(ConfigurationError, match="is not finite"):
        engine.insert(Rect(0, 0, INF, 1), {"a"})
    assert wal_of(tmp_path).read_bytes() == wal_before
    oid = engine.insert(Rect(2, 2, 3, 3), {"b"})
    engine.close()
    recovered = recover(snapshot_of(tmp_path), wal_of(tmp_path))
    assert (len(recovered), recovered.next_oid) == (2, oid + 1)
