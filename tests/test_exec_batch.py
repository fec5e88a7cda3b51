"""Batched execution must be answer-identical to per-query search."""

from __future__ import annotations

import sys
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    METHOD_REGISTRY,
    BatchExecutor,
    Query,
    QueryService,
    Rect,
    SealSearch,
    TokenWeighter,
    build_method,
    make_corpus,
)
from repro.core import verification
from repro.datasets import generate_queries
from repro.exec import pipeline
from repro.exec.planner import PlannedSealSearch, rule
from repro.index.inverted import InvertedIndex

from tests.strategies import (
    boundary_cases,
    corpora,
    queries as query_strategy,
    rects,
    token_sets,
)

#: The verifier's two private branches — loops or NumPy kernels, for the
#: spatial and the textual check alike — forced by moving its one cut.
BRANCHES = {"loop": sys.maxsize, "mask": 0}


def forced(branch: str):
    """While open, every candidate set verifies through ``branch``."""
    return mock.patch.object(verification, "VECTOR_MIN_CANDIDATES", BRANCHES[branch])


#: The batched pass's group-size cut, forced: every member group takes
#: the batched pass, or none does (a loop of singles).
GROUP_CUTS = {"batched": 1, "loop": sys.maxsize}


def grouped(cut: str):
    """While open, ``execute_batch`` and the filters batch by ``cut``."""
    return mock.patch.object(pipeline, "BATCH_MIN_QUERIES", GROUP_CUTS[cut])


def _counters(stats):
    return (stats.method, stats.lists_probed, stats.entries_retrieved,
            stats.entries_matched, stats.candidates, stats.results)


#: Keep indexes small and the threshold grid low enough that candidate
#: sets exceed the vectorisation cutoff on the 400-object corpus.
METHOD_PARAMS = {
    "grid": {"granularity": 16},
    "hash-hybrid": {"granularity": 16, "num_buckets": 512},
    "seal": {"mt": 8, "max_level": 6, "min_objects": 2},
    "irtree": {"max_entries": 8},
}


@pytest.fixture(scope="module")
def workload(twitter_small):
    out = []
    for tau_r, tau_t in [(0.1, 0.1), (0.4, 0.4), (0.0, 0.3), (0.3, 0.0)]:
        out.extend(
            generate_queries(twitter_small, "small", num_queries=4, seed=29, tau_r=tau_r, tau_t=tau_t)
        )
        out.extend(
            generate_queries(twitter_small, "large", num_queries=2, seed=31, tau_r=tau_r, tau_t=tau_t)
        )
    return out


class TestBatchEqualsPerQuery:
    @pytest.mark.parametrize("name", sorted(METHOD_REGISTRY))
    def test_every_registry_method(self, name, twitter_small, twitter_small_weighter, workload):
        method = build_method(
            twitter_small, name, twitter_small_weighter, **METHOD_PARAMS.get(name, {})
        )
        expected = [method.search(q).answers for q in workload]
        batch = BatchExecutor().run(method, workload)
        assert [r.answers for r in batch] == expected, name

    @pytest.mark.parametrize("branch", sorted(BRANCHES))
    @pytest.mark.parametrize("name", sorted(METHOD_REGISTRY))
    def test_each_verifier_branch_forced(
        self, name, branch, twitter_small, twitter_small_weighter, workload
    ):
        """Pushing every candidate set through one branch — the
        per-object loops or the NumPy kernels — must not change an
        answer, single query or batch."""
        method = build_method(
            twitter_small, name, twitter_small_weighter, **METHOD_PARAMS.get(name, {})
        )
        expected = [method.search(q).answers for q in workload]
        with forced(branch):
            assert [method.search(q).answers for q in workload] == expected, name
            assert [r.answers for r in BatchExecutor().run(method, workload)] == expected, name

    def test_per_query_stats_counters_match(self, twitter_small, twitter_small_weighter, workload):
        method = build_method(twitter_small, "token", twitter_small_weighter)
        batch = BatchExecutor().run(method, workload)
        for result, query in zip(batch, workload):
            reference = method.search(query)
            assert result.stats.candidates == reference.stats.candidates
            assert result.stats.results == reference.stats.results
            assert result.stats.lists_probed == reference.stats.lists_probed
            assert result.stats.entries_retrieved == reference.stats.entries_retrieved


@st.composite
def query_batches(draw):
    """A corpus and a batch against it: a :func:`boundary_cases` query
    (τ on an object's simR / simT, or one ulp either side) among drawn
    ones — zero-area regions, empty token sets (an empty prefix), tokens
    no object has, τT = 0 and τR = 0 (the ``FULL_SCAN`` routes), so both
    rule branches — some of them repeated, in any order."""
    corpus, boundary = draw(boundary_cases())
    unseen = st.frozensets(st.sampled_from(["unseen0", "unseen1"]), max_size=2)
    drawn = draw(st.lists(
        st.tuples(query_strategy(), unseen).map(
            lambda pair: Query(pair[0].region, pair[0].tokens | pair[1],
                               pair[0].tau_r, pair[0].tau_t)
        ),
        max_size=12,
    ))
    batch = [boundary] + drawn
    repeats = draw(st.lists(st.sampled_from(batch), max_size=4))
    return corpus, draw(st.permutations(batch + repeats))


class TestBatchedPassEqualsLoop:
    """``token``, ``grid`` and ``planned`` answer a batch in batched
    passes; each query's result must be the single query's — answers,
    ``method`` and all five counters — and ``naive``'s answers, with the
    verifier cut, the group-size cut and the chunk size each forced."""

    @pytest.mark.parametrize("name", ["planned", "token", "grid"])
    @settings(max_examples=60, deadline=None)
    @given(
        case=query_batches(),
        branch=st.sampled_from(sorted(BRANCHES)),
        cut=st.sampled_from(sorted(GROUP_CUTS)),
        chunk=st.sampled_from([3, pipeline.BATCH_MAX_QUERIES]),
    )
    def test_batch_equals_singles_equals_naive(self, name, case, branch, cut, chunk):
        corpus, queries = case
        method = build_method(corpus, name, **({} if name == "token" else {"granularity": 16}))
        naive = build_method(corpus, "naive", method.weighter)
        with forced(branch):
            singles = [method.search(query) for query in queries]
            with grouped(cut), mock.patch.object(pipeline, "BATCH_MAX_QUERIES", chunk):
                batch = BatchExecutor().run(method, queries)
        assert [_counters(r.stats) for r in batch] == [_counters(r.stats) for r in singles]
        answers = [r.answers for r in batch]
        assert answers == [r.answers for r in singles]
        assert answers == [naive.search(query).answers for query in queries]
        assert all(type(oid) is int for found in answers for oid in found)

    def test_planner_records_one_selection_per_query(self, twitter_small,
                                                     twitter_small_weighter, workload):
        planner = build_method(twitter_small, "planned", twitter_small_weighter)
        with grouped("batched"):
            batch = BatchExecutor().run(planner, workload)
        assert Counter(r.stats.method for r in batch) == Counter(
            f"planned:{rule(query)[0]}" for query in workload)

    def test_a_batch_past_the_chunk_size(self, twitter_small, twitter_small_weighter, workload):
        """Seventy queries: three near-equal passes of a planned engine."""
        planner = build_method(twitter_small, "planned", twitter_small_weighter)
        queries = (workload * 3)[:70]
        expected = [planner.search(query) for query in queries]
        batch = BatchExecutor().run(planner, queries)
        assert [_counters(r.stats) for r in batch] == [_counters(r.stats) for r in expected]
        assert [r.answers for r in batch] == [r.answers for r in expected]

    @pytest.mark.parametrize("name", ["planned", "token", "grid"])
    def test_full_scan_queries_do_not_count_toward_the_group_cut(
        self, name, twitter_small, twitter_small_weighter, workload
    ):
        """Four queries bound for one filter, three of them ``FULL_SCAN``
        (τR = τT = 0): one query to probe is below the cut, so no
        batched pass runs, and the results are the singles'."""
        method = build_method(twitter_small, name, twitter_small_weighter)
        base = workload[0]
        # τT = 0 sends a planned query to grid, with the three below.
        probing = Query(base.region, base.tokens, 0.3, 0.3 if name == "token" else 0.0)
        queries = [probing] + [Query(base.region, base.tokens, 0.0, 0.0)] * 3
        assert len(queries) >= pipeline.BATCH_MIN_QUERIES
        expected = [method.search(query) for query in queries]
        with mock.patch.object(InvertedIndex, "union_heads_batch", side_effect=AssertionError):
            batch = BatchExecutor().run(method, queries)
        assert [_counters(r.stats) for r in batch] == [_counters(r.stats) for r in expected]
        assert [r.answers for r in batch] == [r.answers for r in expected]

    def test_membership_scratch_has_a_slot_per_live_query_only(
        self, twitter_small, twitter_small_weighter, workload
    ):
        """Only a query with a spatial survivor takes a slot of the
        thread's membership scratch: a batch in which one query has one
        grows it to one vocabulary, not to batch × vocabulary."""
        method = build_method(twitter_small, "token", twitter_small_weighter)
        tokens = workload[0].tokens
        live = Query(workload[0].region, tokens, 0.0, 0.1)
        # A point far from the corpus: simR = 0 with every object.
        dead = Query(Rect(-1e6, -1e6, -1e6, -1e6), tokens, 0.5, 0.1)
        queries = [live] + [dead] * 7
        with grouped("batched"):
            batch = BatchExecutor().run(method, queries)
        assert [r.answers for r in batch] == [method.search(query).answers for query in queries]
        assert batch[0].answers and not any(r.answers for r in batch[1:])
        vocabulary = len(method.verifier._token_rows[1])
        assert len(method.verifier._scratch.member) == vocabulary


class TestVerifierBranchProperty:
    @settings(max_examples=60, deadline=None)
    @given(corpus_query=corpora(min_size=1, max_size=12).flatmap(
        lambda objs: query_strategy().map(lambda q: (objs, q))
    ))
    def test_mask_equals_loop(self, corpus_query):
        objects, query = corpus_query
        method = build_method(objects, "naive")
        with forced("loop"):
            expected = method.search(query).answers
        with forced("mask"):
            assert method.search(query).answers == expected
            assert [r.answers for r in BatchExecutor().run(method, [query])] == [expected]

    @settings(max_examples=80, deadline=None)
    @given(
        pairs=st.lists(st.tuples(rects(), token_sets), min_size=1, max_size=40),
        seen=st.integers(min_value=1, max_value=40),
        query=query_strategy(),
        extra=st.frozensets(st.sampled_from(["unseen0", "unseen1"])),
        vacuous_r=st.booleans(),
    )
    def test_kernel_equals_loop_on_unseen_and_empty_tokens(self, pairs, seen, query, extra,
                                                           vacuous_r):
        """Objects and queries with empty token sets, tokens the weighter
        never saw (a stale segment weighter: built from a prefix of the
        corpus), and τR = 0 so every candidate reaches the textual check."""
        objects = make_corpus(pairs)
        weighter = TokenWeighter(o.tokens for o in objects[:seen])
        query = Query(query.region, query.tokens | extra,
                      0.0 if vacuous_r else query.tau_r, query.tau_t)
        verifier = verification.Verifier(objects, weighter)
        with forced("loop"):
            expected = verifier.verify(query, range(len(objects)))
        with forced("mask"):
            assert verifier.verify(query, range(len(objects))) == expected
        assert verifier.verify(query, np.arange(len(objects))) == expected


def _boundary_corpus():
    """Forty objects, eight archetypes × 5, around the query region
    ``[0,4]²`` with tokens ``{a, b}``.  Coordinates are small powers of
    two, so every spatial similarity below is exact in float64; ``a`` and
    ``b`` have equal document frequency, hence equal idf weight."""
    archetypes = [
        (Rect(0, 0, 4, 4), {"a", "b"}),       # 0 identical: simR 1, simT 1
        (Rect(0, 0, 2, 4), {"a"}),            # 1 half: simR = 0.5, simT = w/2w
        (Rect(4, 0, 8, 4), {"a"}),            # 2 shares an edge only: simR 0
        (Rect(1, 1, 1, 1), {"b"}),            # 3 a point inside: simR 0
        (Rect(0, 0, 4, 0), {"a", "b"}),       # 4 a zero-area line: simR 0, simT 1
        (Rect(10, 10, 12, 12), {"c"}),        # 5 disjoint on both axes
        (Rect(0, 0, 2, 2), {"a", "b", "c"}),  # 6 quarter: simR = 0.25
        (Rect(0, 0, 8, 4), {"b"}),            # 7 double: simR = 0.5
    ]
    return make_corpus([archetypes[i % 8] for i in range(40)])


class TestVerifierBoundaries:
    """Loop branch ≡ mask branch ≡ NaiveSearch where they could part:
    at the 32-candidate cut, on zero-area and edge-touching regions, at
    vacuous thresholds, and on objects sitting exactly on τ."""

    REGION = Rect(0, 0, 4, 4)
    TOKENS = frozenset({"a", "b"})

    @pytest.fixture(scope="class")
    def naive(self):
        corpus = _boundary_corpus()
        return build_method(corpus, "naive", TokenWeighter(o.tokens for o in corpus))

    def _three_ways(self, naive, query, candidates):
        verify = naive.verifier.verify
        default = verify(query, candidates)
        with forced("loop"):
            loop = verify(query, candidates)
        with forced("mask"):
            mask = verify(query, candidates)
        wanted = set(int(oid) for oid in candidates)
        oracle = [oid for oid in naive.search(query).answers if oid in wanted]
        assert sorted(default) == sorted(loop) == sorted(mask) == oracle
        assert all(type(oid) is int for oid in default + loop + mask)
        return oracle

    @pytest.mark.parametrize("tau_r, tau_t", [
        (0.5, 0.5), (0.25, 0.0), (0.0, 0.5), (0.0, 0.0), (1.0, 1.0), (0.5, 2 / 3), (0.3, 0.3),
    ])
    @pytest.mark.parametrize("size", [31, 32, 33])
    @pytest.mark.parametrize("kind", ["list", "range", "set", "int32"])
    def test_around_the_cut_on_every_candidate_type(self, naive, kind, size, tau_r, tau_t):
        candidates = {
            "list": list(range(size)),
            "range": range(size),
            "set": set(range(size)),
            "int32": np.arange(size, dtype=np.int32),
        }[kind]
        query = Query(self.REGION, self.TOKENS, tau_r, tau_t)
        self._three_ways(naive, query, candidates)

    def test_spatial_similarity_exactly_tau_is_kept(self, naive):
        """simR = 8/16 and 16/32 equal τR = 0.5 to the bit: kept (≥)."""
        query = Query(self.REGION, self.TOKENS, 0.5, 0.0)
        kept = self._three_ways(naive, query, range(40))
        assert sorted({oid % 8 for oid in kept}) == [0, 1, 7]
        just_above = Query(self.REGION, self.TOKENS, float(np.nextafter(0.5, 1.0)), 0.0)
        kept = self._three_ways(naive, just_above, range(40))
        assert sorted({oid % 8 for oid in kept}) == [0]

    def test_zero_area_and_edge_touching_regions(self, naive):
        """A shared edge, an interior point and a line all have simR 0:
        in at τR = 0, out at any positive τR."""
        vacuous = self._three_ways(naive, Query(self.REGION, self.TOKENS, 0.0, 0.0), range(40))
        assert vacuous == list(range(40))
        positive = self._three_ways(naive, Query(self.REGION, self.TOKENS, 1e-12, 0.0), range(40))
        assert sorted({oid % 8 for oid in positive}) == [0, 1, 6, 7]

    @pytest.mark.parametrize("tau_r, archetypes", [(0.0, list(range(8))), (0.3, [3])])
    def test_degenerate_query_region(self, naive, tau_r, archetypes):
        """A point query against zero-area objects: the union is 0, so
        only the identical point is similar — unless τR is vacuous."""
        query = Query(Rect(1, 1, 1, 1), self.TOKENS, tau_r, 0.0)
        kept = self._three_ways(naive, query, range(40))
        assert sorted({oid % 8 for oid in kept}) == archetypes

    def _sim_t(self, naive, oid) -> float:
        """An object's simT against ``TOKENS``, the canonical way: the
        intersection summed in the global order, exact totals."""
        weighter = naive.weighter
        tokens = naive.corpus[oid].tokens
        inter_w = sum(weighter.weight(t) for t in weighter.sort_tokens(tokens & self.TOKENS))
        union_w = weighter.total_weight(self.TOKENS) + weighter.total_weight(tokens) - inter_w
        return inter_w / union_w

    @pytest.mark.parametrize("oid", [1, 6])  # {a} ⊂ q.T, and {a, b, c} ⊃ q.T
    @pytest.mark.parametrize("above", [False, True])
    @pytest.mark.parametrize("size", [31, 32, 33])
    @pytest.mark.parametrize("kind", ["list", "range", "set", "int32"])
    def test_textual_similarity_exactly_tau_around_the_cut(self, naive, kind, size, above, oid):
        """The simT = τ twin of the simR cases: τT set to an object's
        simT and to the next float above it, τR = 0 so every candidate
        reaches the textual check — 31 survivors take the loop, 32 and
        33 the CSR kernel.  Whichever side rounding puts the object on,
        all three agree; where simT is exact (½), it is kept on τ and
        dropped just above."""
        assert naive.weighter.weight("a") == naive.weighter.weight("b")
        tau_t = self._sim_t(naive, oid)
        if above:
            tau_t = float(np.nextafter(tau_t, 1.0))
        candidates = {
            "list": list(range(size)),
            "range": range(size),
            "set": set(range(size)),
            "int32": np.arange(size, dtype=np.int32),
        }[kind]
        kept = self._three_ways(naive, Query(self.REGION, self.TOKENS, 0.0, tau_t), candidates)
        if oid == 1:
            # simT ½: {a} or {b} against {a, b}; 1: identical token sets.
            assert sorted({o % 8 for o in kept}) == ([0, 4] if above else [0, 1, 2, 3, 4, 7])


class TestLazyColumnsUnderThreads:
    def test_first_large_verifies_race_to_build_the_box_block(self, twitter_small,
                                                              twitter_small_weighter):
        """The box block and the token CSR (and the totals under them)
        are built by whichever service worker first sees ≥ 32 candidates
        or survivors; racing builders must all answer like the loop
        branch, every round, on a fresh verifier — each thread with its
        own membership scratch — and leave the block a fresh build
        holds."""
        import threading
        from concurrent.futures import ThreadPoolExecutor

        queries = list(generate_queries(
            twitter_small, "large", num_queries=8, seed=13, tau_r=0.05, tau_t=0.0
        )) + list(generate_queries(
            twitter_small, "small", num_queries=8, seed=13, tau_r=0.0, tau_t=0.2
        ))
        with forced("loop"):
            reference = build_method(twitter_small, "naive", twitter_small_weighter)
            expected = [reference.search(q).answers for q in queries]
        workers = 8
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                for _ in range(10):
                    method = build_method(twitter_small, "naive", twitter_small_weighter)
                    barrier = threading.Barrier(workers)

                    def client():
                        barrier.wait(timeout=30)
                        return [method.search(q).answers for q in queries]

                    futures = [pool.submit(client) for _ in range(workers)]
                    assert all(f.result(timeout=60) == expected for f in futures)
                    assert method.verifier._token_rows is not None
                    built = verification.Verifier(twitter_small, twitter_small_weighter)._box_block()
                    assert np.array_equal(method.verifier._boxes, built)
        finally:
            sys.setswitchinterval(previous)

    def test_batches_and_singles_race_on_one_planner(self, twitter_small,
                                                     twitter_small_weighter, workload):
        """A batched pass grows the thread's membership scratch to batch
        × vocabulary and shares it with that thread's single queries;
        threads interleaving both on one fresh planner — its columns and
        CSR built by whichever comes first — all answer like the loop,
        through one cache-off service that counts every dispatch."""
        import threading
        from concurrent.futures import ThreadPoolExecutor

        with forced("loop"):
            reference = build_method(twitter_small, "planned", twitter_small_weighter)
            expected = [reference.search(q).answers for q in workload]
        workers = 6
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                for _ in range(5):
                    planner = build_method(twitter_small, "planned", twitter_small_weighter)
                    service = QueryService(planner, enable_cache=False, workers=workers)
                    barrier = threading.Barrier(workers)

                    def client(batched: bool):
                        barrier.wait(timeout=30)
                        if batched:
                            return [r.answers for r in service.query_batch(workload)]
                        return [service.query(q).answers for q in workload]

                    with service:
                        futures = [pool.submit(client, i % 2 == 0) for i in range(workers)]
                        assert all(f.result(timeout=60) == expected for f in futures)
                        decisions = service.metrics()["planner"]["decisions"]
                    assert decisions == workers * len(workload)
        finally:
            sys.setswitchinterval(previous)


class TestBatchIsAList:
    """A batch is its per-query results, nothing more: the workload
    summary is :func:`repro.bench.measure_workload`'s."""

    def test_results_in_input_order(self, twitter_small, twitter_small_weighter, workload):
        method = build_method(twitter_small, "token", twitter_small_weighter)
        for queries in (workload, workload[::-1]):
            batch = BatchExecutor().run(method, queries)
            assert isinstance(batch, list) and len(batch) == len(queries)
            assert [_counters(r.stats) for r in batch] == [
                _counters(method.search(query).stats) for query in queries
            ]

    def test_empty_batch(self, twitter_small, twitter_small_weighter):
        method = build_method(twitter_small, "token", twitter_small_weighter)
        assert BatchExecutor().run(method, []) == []
        assert SealSearch([(Rect(0, 0, 1, 1), {"a"})], method="token").search_batch([]) == []


class TestSearchBatchFacade:
    def test_matches_search_query(self):
        engine = SealSearch(
            [
                (Rect(0, 0, 10, 10), {"coffee", "mocha"}),
                (Rect(2, 2, 12, 12), {"coffee", "starbucks"}),
                (Rect(50, 50, 60, 60), {"tea"}),
            ],
            method="token",
        )
        batch_queries = [
            Query(Rect(1, 1, 9, 9), frozenset({"coffee"}), 0.2, 0.2),
            Query(Rect(49, 49, 61, 61), frozenset({"tea"}), 0.5, 0.5),
            Query(Rect(0, 0, 60, 60), frozenset({"coffee", "tea"}), 0.0, 0.0),
        ]
        batch = engine.search_batch(batch_queries)
        assert [r.answers for r in batch] == [engine.search_query(q).answers for q in batch_queries]

    def test_service_over_a_facade_takes_the_batched_pass(self, twitter_small):
        """Regression: ``QueryService.from_data`` serves a ``SealSearch``
        facade, which has no ``candidates_batch`` of its own, so every
        burst through it ran as a loop of singles.  The facade's
        ``search_batch`` is the hook that reaches the planner's pass."""
        queries = list(generate_queries(twitter_small, "large", num_queries=32, seed=5,
                                        tau_r=0.2, tau_t=0.2))
        pairs = [(obj.region, obj.tokens) for obj in twitter_small]
        naive = build_method(twitter_small, "naive")
        spy = mock.patch.object(PlannedSealSearch, "candidates_batch", autospec=True,
                                side_effect=PlannedSealSearch.candidates_batch)
        with QueryService.from_data(pairs, enable_cache=False) as service, spy as calls:
            results = service.query_batch(queries)
        assert calls.call_count == 1
        assert [r.answers for r in results] == [naive.search(q).answers for q in queries]
