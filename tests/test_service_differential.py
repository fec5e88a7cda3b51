"""Differential property test: cached service ≡ uncached from-scratch oracle.

Hypothesis drives randomized interleavings of inserts, deletes, and
(repeated) queries through a cache-enabled :class:`QueryService` over a
segmented engine with a tiny buffer (so seals and size-tiered merges
happen constantly).  After every step, each query is answered twice —
the second answer typically straight from the cache — and both must
equal a cache-disabled, from-scratch ``build_method`` oracle over the
live set.  Any stale-cache window after an epoch bump, any missed bump,
or any divergence between the cached and computed paths fails here.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import (
    Query,
    SegmentedSealSearch,
    SpatioTextualObject,
    build_method,
    execute_query,
)
from repro.service import QueryService
from tests.strategies import nonempty_token_sets, rects, thresholds


@st.composite
def service_queries(draw) -> Query:
    return Query(
        region=draw(rects()),
        tokens=draw(nonempty_token_sets),
        tau_r=draw(thresholds),
        tau_t=draw(thresholds),
    )


#: One step of the interleaving.  Deletes carry a draw that picks among
#: the oids live at execution time; queries are asked twice (cache pin).
ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), rects(), nonempty_token_sets),
        st.tuples(st.just("delete"), st.integers(min_value=0, max_value=10**6)),
        st.tuples(st.just("query"), service_queries()),
    ),
    min_size=1,
    max_size=24,
)


def _oracle_answers(engine: SegmentedSealSearch, query: Query):
    """Cache-free from-scratch build over the live set (the PR 3 oracle)."""
    live = sorted((engine.object(oid) for oid in engine._live), key=lambda o: o.oid)
    if not live:
        return []
    local = [SpatioTextualObject(i, o.region, o.tokens) for i, o in enumerate(live)]
    oracle = build_method(local, "token", engine.weighter)
    result = execute_query(oracle, query)
    return sorted(live[i].oid for i in result.answers)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(steps=ops)
def test_cached_service_matches_from_scratch_oracle(steps):
    engine = SegmentedSealSearch(
        method="token", buffer_capacity=3, merge_fanout=2
    )
    with QueryService(engine, workers=2, max_queue=64) as service:
        epoch_before = service.epoch
        for step in steps:
            if step[0] == "insert":
                _, region, tokens = step
                service.insert(region, tokens)
                assert service.epoch == epoch_before + 1, "insert must bump"
                epoch_before = service.epoch
            elif step[0] == "delete":
                _, pick = step
                live = sorted(engine._live)
                if not live:
                    continue
                deleted = service.delete(live[pick % len(live)])
                assert deleted is True
                assert service.epoch == epoch_before + 1, "delete must bump"
                epoch_before = service.epoch
            else:
                _, query = step
                expected = _oracle_answers(engine, query)
                first = service.query(query)
                second = service.query(query)  # typically a cache hit
                assert first.answers == expected
                assert second.answers == expected
                assert first is not second  # hits are private copies

        # Converge: compaction refreshes idf weights, bumps the epoch,
        # and the (invalidated, refilled) cache must agree again.
        if len(engine) or engine.tombstones:
            service.apply(lambda live: live.compact())
        for step in steps:
            if step[0] == "query":
                query = step[1]
                expected = _oracle_answers(engine, query)
                assert service.query(query).answers == expected
                assert service.query(query).answers == expected


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(steps=ops)
def test_cached_and_uncached_services_agree(steps):
    """Two services over identical engines — cache on vs cache off —
    driven through the same interleaving must agree on every answer."""
    cached_engine = SegmentedSealSearch(
        method="token", buffer_capacity=3, merge_fanout=2
    )
    plain_engine = SegmentedSealSearch(
        method="token", buffer_capacity=3, merge_fanout=2
    )
    with QueryService(cached_engine, workers=2, max_queue=64) as cached, QueryService(
        plain_engine, enable_cache=False, workers=2, max_queue=64
    ) as plain:
        for step in steps:
            if step[0] == "insert":
                _, region, tokens = step
                assert cached.insert(region, tokens) == plain.insert(region, tokens)
            elif step[0] == "delete":
                _, pick = step
                live = sorted(cached_engine._live)
                if not live:
                    continue
                oid = live[pick % len(live)]
                assert cached.delete(oid) == plain.delete(oid)
            else:
                _, query = step
                assert cached.query(query).answers == plain.query(query).answers
