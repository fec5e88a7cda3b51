"""Tests for the segmented (LSM-style) updatable engine.

The load-bearing invariant: at *any* point of an interleaved
insert/delete/search/compact workload, answers equal a from-scratch
``build_method`` oracle over the live object set built with the engine's
current weighter — and immediately after ``compact()`` that weighter is
exactly the from-scratch weighter, so the engine converges to a clean
build.
"""

from __future__ import annotations

import random
from unittest import mock

import pytest

from repro import (
    BatchExecutor,
    Query,
    Rect,
    SegmentedSealSearch,
    SpatioTextualObject,
    build_method,
    execute_query,
)
from repro.datasets import generate_queries
from repro.filters import TokenFilter
from repro.text.weights import TokenWeighter

VOCAB = [f"tok{i}" for i in range(14)]


def _rand_object(rng: random.Random):
    x, y = rng.uniform(0, 90), rng.uniform(0, 90)
    w, h = rng.uniform(1, 12), rng.uniform(1, 12)
    tokens = frozenset(rng.sample(VOCAB, rng.randint(1, 4)))
    return Rect(x, y, x + w, y + h), tokens


def _rand_query(rng: random.Random) -> Query:
    region, tokens = _rand_object(rng)
    tau = rng.choice([0.05, 0.2, 0.4])
    return Query(region, tokens, tau, tau)


def _oracle_answers(engine: SegmentedSealSearch, query: Query, method: str, **params):
    """From-scratch build over the live set, answers mapped to global oids."""
    live = sorted((engine.object(oid) for oid in engine._live), key=lambda o: o.oid)
    if not live:
        return []
    local = [SpatioTextualObject(i, o.region, o.tokens) for i, o in enumerate(live)]
    oracle = build_method(local, method, engine.weighter, **params)
    result = execute_query(oracle, query)
    return sorted(live[i].oid for i in result.answers)


class TestLifecycle:
    def test_empty_bootstrap(self):
        engine = SegmentedSealSearch(method="token")
        assert len(engine) == 0 and engine.num_segments == 0
        assert engine.search(Rect(0, 0, 5, 5), {"a"}, 0.0, 0.0).answers == []
        oid = engine.insert(Rect(0, 0, 5, 5), {"a"})
        assert engine.search(Rect(0, 0, 5, 5), {"a"}, 0.3, 0.3).answers == [oid]

    def test_initial_data_seals_one_segment(self):
        engine = SegmentedSealSearch(
            [(Rect(i, 0, i + 1, 1), {"a"}) for i in range(10)], method="token"
        )
        assert engine.num_segments == 1
        assert engine.pending == 0
        assert len(engine) == 10

    def test_insert_visible_immediately_and_oids_monotonic(self):
        engine = SegmentedSealSearch(method="token", buffer_capacity=4)
        oids = [engine.insert(Rect(i, 0, i + 1, 1), {"a", f"t{i}"}) for i in range(11)]
        assert oids == list(range(11))
        assert engine.num_segments >= 2  # capacity 4 → sealed at least twice
        assert engine.pending == 3
        for oid in oids:
            assert engine.object(oid).oid == oid
        # tau_t 0.0: "a" is corpus-wide (idf 0), so only spatial filters.
        result = engine.search(Rect(0, 0, 12, 1), {"a"}, 0.01, 0.0)
        assert result.answers == oids

    def test_delete_buffered_and_sealed(self):
        engine = SegmentedSealSearch(method="token", buffer_capacity=4)
        oids = [engine.insert(Rect(i, 0, i + 1, 1), {"a"}) for i in range(6)]
        # oid 5 is still buffered, oid 0 is sealed.
        assert engine.delete(5) and engine.delete(0)
        assert engine.tombstones == 1  # only the sealed one needs a tombstone
        assert len(engine) == 4
        assert not engine.delete(0)  # already dead
        assert not engine.delete(99)  # never existed
        result = engine.search(Rect(0, 0, 7, 1), {"a"}, 0.01, 0.01)
        assert result.answers == [1, 2, 3, 4]
        with pytest.raises(KeyError):
            engine.object(0)

    def test_oids_never_reused_after_delete(self):
        engine = SegmentedSealSearch(method="token", buffer_capacity=2)
        a = engine.insert(Rect(0, 0, 1, 1), {"x"})
        engine.delete(a)
        b = engine.insert(Rect(0, 0, 1, 1), {"x"})
        assert b == a + 1

    def test_size_tiered_merges_bound_segment_count(self):
        engine = SegmentedSealSearch(method="token", buffer_capacity=2, merge_fanout=2)
        for i in range(64):
            engine.insert(Rect(i, 0, i + 1, 1), {"a", f"t{i % 7}"})
        # 32 seals collapse into O(log) segments under fanout-2 merges.
        assert engine.num_segments <= 6
        assert engine.search(Rect(0, 0, 65, 1), {"a"}, 0.01, 0.0).answers == list(range(64))

    def test_merge_drops_tombstones_physically(self):
        engine = SegmentedSealSearch(method="token", buffer_capacity=2, merge_fanout=2)
        oids = [engine.insert(Rect(i, 0, i + 1, 1), {"a"}) for i in range(8)]
        for oid in oids[::2]:
            engine.delete(oid)
        engine.compact()
        assert engine.tombstones == 0
        assert engine.num_segments == 1
        assert sum(engine.segment_sizes()) == 4

    def test_compact_noop_when_converged(self):
        engine = SegmentedSealSearch(
            [(Rect(0, 0, 1, 1), {"a"})], method="token"
        )
        assert engine.compactions == 0
        engine.compact()  # fresh from construction: nothing to do
        assert engine.compactions == 0
        engine.insert(Rect(1, 0, 2, 1), {"b"})
        engine.compact()
        assert engine.compactions == 1

    def test_compact_to_empty(self):
        engine = SegmentedSealSearch([(Rect(0, 0, 1, 1), {"a"})], method="token")
        engine.delete(0)
        engine.compact()
        assert len(engine) == 0 and engine.num_segments == 0
        assert engine.search(Rect(0, 0, 2, 2), {"a"}, 0.0, 0.0).answers == []

    def test_validation(self):
        with pytest.raises(ValueError):
            SegmentedSealSearch(buffer_capacity=0)
        with pytest.raises(ValueError):
            SegmentedSealSearch(merge_fanout=1)


class TestWeighterSemantics:
    def test_weights_converge_at_compaction(self):
        engine = SegmentedSealSearch(
            [(Rect(i, 0, i + 1, 1), {"a", f"t{i}"}) for i in range(6)], method="token"
        )
        engine.insert(Rect(9, 0, 10, 1), {"brandnew"})
        # Drift phase: the new token is unknown to the engine weighter.
        assert "brandnew" not in engine.weighter
        engine.compact()
        live_tokens = [engine.object(oid).tokens for oid in sorted(engine._live)]
        assert engine.weighter._weights == TokenWeighter(live_tokens)._weights

    def test_bootstrap_phase_has_no_drift(self):
        engine = SegmentedSealSearch(method="token", buffer_capacity=100)
        engine.insert(Rect(0, 0, 1, 1), {"x", "y"})
        engine.insert(Rect(1, 0, 2, 1), {"y"})
        assert engine.num_segments == 0  # still all in the buffer
        expected = TokenWeighter([{"x", "y"}, {"y"}])
        assert engine.weighter._weights == expected._weights

    def test_bootstrap_weighter_rebuilt_lazily(self):
        """An unsealed insert burst marks the weighter dirty instead of
        rebuilding it per insert — O(1) bookkeeping per write."""
        engine = SegmentedSealSearch(method="token", buffer_capacity=None)
        before = engine.weighter
        for i in range(50):
            engine.insert(Rect(i, 0, i + 1, 1), {f"t{i}"})
            assert engine._weighter is before  # untouched mid-burst
        assert "t49" in engine.weighter  # observation triggers the rebuild
        assert engine._weighter is not before


class TestStats:
    def test_merged_stats_are_sane(self):
        engine = SegmentedSealSearch(method="token", buffer_capacity=3)
        for i in range(8):
            engine.insert(Rect(i, 0, i + 1, 1), {"a"})
        result = engine.search(Rect(0, 0, 9, 1), {"a"}, 0.01, 0.01)
        assert result.stats.results == len(result.answers)
        # Buffer objects are exact-scanned: they all count as candidates.
        assert result.stats.candidates >= engine.pending
        assert result.stats.candidates >= result.stats.results

    def test_stats_do_not_alias_across_searches(self):
        engine = SegmentedSealSearch(
            [(Rect(0, 0, 5, 5), {"a"})], method="token"
        )
        first = engine.search(Rect(0, 0, 5, 5), {"a"}, 0.2, 0.2)
        snapshot = first.stats.copy()
        engine.search(Rect(0, 0, 5, 5), {"a"}, 0.2, 0.2)
        assert first.stats.candidates == snapshot.candidates
        assert first.stats.results == snapshot.results

    def test_buffer_counts_on_top_and_searches_do_not_accumulate(self):
        """Buffered objects are candidates on top of the sealed scan's,
        in a fresh stats object each time; an earlier result's counters
        never move retroactively."""
        engine = SegmentedSealSearch(
            [(Rect(i * 10, 0, i * 10 + 5, 5), {"coffee", f"tag{i}"}) for i in range(20)],
            method="token",
        )
        probe = (Rect(0, 0, 5, 5), {"coffee", "tag0"}, 0.2, 0.2)
        before = engine.search(*probe)
        sealed_candidates = before.stats.candidates
        engine.insert(Rect(100, 100, 105, 105), {"tea"})
        assert engine.pending == 1
        merged = engine.search(*probe)
        again = engine.search(*probe)
        assert merged.stats is not before.stats
        assert merged.stats.results == len(merged.answers)
        assert merged.stats.candidates == sealed_candidates + engine.pending
        assert again.stats.candidates == merged.stats.candidates
        assert again.answers == merged.answers
        assert before.stats.candidates == sealed_candidates


class TestChurnOracle:
    """Randomized interleaved workloads pinned answer-identical to a
    from-scratch oracle — the acceptance criterion of the refactor."""

    @pytest.mark.parametrize("seed", [3, 11])
    def test_churn_matches_fresh_build(self, seed):
        rng = random.Random(seed)
        engine = SegmentedSealSearch(
            method="token", buffer_capacity=4, merge_fanout=2
        )
        live_oids: list[int] = []
        checked = 0
        for _ in range(150):
            op = rng.random()
            if op < 0.45 or not live_oids:
                live_oids.append(engine.insert(*_rand_object(rng)))
            elif op < 0.60:
                victim = live_oids.pop(rng.randrange(len(live_oids)))
                assert engine.delete(victim)
            elif op < 0.90:
                query = _rand_query(rng)
                got = engine.search_query(query)
                assert got.answers == _oracle_answers(engine, query, "token")
                assert got.stats.results == len(got.answers)
                checked += 1
            elif op < 0.95:
                engine.flush()
            else:
                engine.compact()
        assert checked > 20
        assert len(engine) == len(live_oids)

    def test_churn_matches_oracle_on_seal_method(self):
        """The paper's own method (hierarchical signatures) through the
        same churn harness — corpus-dependent partitions and all."""
        rng = random.Random(5)
        engine = SegmentedSealSearch(
            method="seal", buffer_capacity=8, merge_fanout=2,
            mt=4, max_level=4, min_objects=2,
        )
        live_oids: list[int] = []
        for step in range(60):
            op = rng.random()
            if op < 0.5 or not live_oids:
                live_oids.append(engine.insert(*_rand_object(rng)))
            elif op < 0.62:
                victim = live_oids.pop(rng.randrange(len(live_oids)))
                assert engine.delete(victim)
            else:
                query = _rand_query(rng)
                assert engine.search_query(query).answers == _oracle_answers(
                    engine, query, "seal", mt=4, max_level=4, min_objects=2
                )

    def test_churn_through_batch_executor(self):
        """BatchExecutor over a churned segmented engine must be
        answer-identical to per-query search."""
        rng = random.Random(23)
        engine = SegmentedSealSearch(
            method="token", buffer_capacity=4, merge_fanout=2
        )
        live = []
        for _ in range(40):
            live.append(engine.insert(*_rand_object(rng)))
            if rng.random() < 0.2 and live:
                engine.delete(live.pop(rng.randrange(len(live))))
        queries = [_rand_query(rng) for _ in range(12)]
        batch = [r.answers for r in BatchExecutor().run(engine, queries)]
        assert batch == [engine.search_query(q).answers for q in queries]
        # And via the facade, which is the executor's hook for this engine.
        assert [r.answers for r in engine.search_batch(queries)] == batch


def _counters(stats):
    return (stats.method, stats.lists_probed, stats.entries_retrieved,
            stats.entries_matched, stats.candidates, stats.results)


class TestBatchedFanOut:
    """``search_batch`` runs one batched pass per source and merges per
    query: each result equals ``search_query``'s."""

    @staticmethod
    def _churned(twitter_small, method):
        """A base segment, three sealed segments, a buffer and tombstones
        in the base, in a sealed segment and (dropped) in the buffer."""
        pairs = [(obj.region, obj.tokens) for obj in twitter_small]
        engine = SegmentedSealSearch(pairs[:200], method, buffer_capacity=48, merge_fanout=8)
        for region, tokens in pairs[200:370]:
            engine.insert(region, tokens)
        for oid in (3, 150, 210, 360):
            assert engine.delete(oid)
        assert engine.num_segments == 4 and engine.pending > 0 and engine.tombstones == 3
        return engine

    @staticmethod
    def _queries(twitter_small):
        queries = []
        for tau_r, tau_t in [(0.1, 0.1), (0.3, 0.0), (0.0, 0.3)]:
            for regime in ("small", "large"):
                queries.extend(generate_queries(twitter_small, regime, num_queries=3, seed=8,
                                                tau_r=tau_r, tau_t=tau_t))
        return queries

    @pytest.mark.parametrize("method", ["token", "planned", "seal"])
    def test_batch_equals_singles(self, twitter_small, method):
        engine = self._churned(twitter_small, method)
        queries = self._queries(twitter_small)
        singles = [engine.search_query(query) for query in queries]
        batch = engine.search_batch(queries)
        assert [r.answers for r in batch] == [r.answers for r in singles]
        assert [_counters(r.stats) for r in batch] == [_counters(r.stats) for r in singles]
        assert [[_counters(s) for s in r.stats.per_source] for r in batch] == [
            [_counters(s) for s in r.stats.per_source] for r in singles]
        assert all(len(r.stats.per_source) == 5 for r in batch)
        assert any(r.answers for r in batch)
        for result in batch:
            assert not {3, 150, 210, 360} & set(result.answers)

    def test_one_batched_filter_pass_per_source(self, twitter_small):
        engine = self._churned(twitter_small, "token")
        queries = self._queries(twitter_small)
        spy = mock.patch.object(TokenFilter, "candidates_batch", autospec=True,
                                side_effect=TokenFilter.candidates_batch)
        with spy as calls:
            engine.search_batch(queries)
        # Four token segments; the buffer scan has no batched filter.
        assert calls.call_count == 4
        assert {id(call.args[0]) for call in calls.call_args_list} == {
            id(method) for method in engine.segment_methods()}

    def test_empty_engine_answers_every_query(self):
        engine = SegmentedSealSearch(method="token")
        queries = [_rand_query(random.Random(seed)) for seed in range(5)]
        batch = engine.search_batch(queries)
        assert [r.answers for r in batch] == [[]] * 5
        assert {r.stats.method for r in batch} == {"segmented:token"}

    def test_one_source_result_is_the_sources(self):
        """An engine with one source answers through it: the source's
        label, no ``per_source``, answers in global oids with tombstones
        masked — for the buffer scan and for a single segment alike."""
        engine = SegmentedSealSearch(method="token", buffer_capacity=None)
        rng = random.Random(5)
        for _ in range(36):
            engine.insert(*_rand_object(rng))
        engine.delete(0)
        queries = [_rand_query(random.Random(seed)) for seed in range(12)]

        def check(label):
            for results in ([engine.search_query(q) for q in queries],
                            engine.search_batch(queries)):
                for query, result in zip(queries, results):
                    assert result.stats.method == label and result.stats.per_source == []
                    assert result.answers == _oracle_answers(engine, query, "token")
                    assert result.stats.results == len(result.answers)

        check("naive")  # the write buffer's scan
        engine.compact()
        assert engine.num_segments == 1 and engine.pending == 0
        check("token")
        victims = {oid for q in queries for oid in engine.search_query(q).answers}
        for oid in sorted(victims)[::2]:
            engine.delete(oid)
        assert engine.tombstones
        check("token")


class TestManifest:
    def test_manifest_accounting(self):
        engine = SegmentedSealSearch(method="token", buffer_capacity=2, merge_fanout=4)
        for i in range(7):
            engine.insert(Rect(i, 0, i + 1, 1), {"a"})
        engine.delete(0)
        manifest = engine.snapshot_manifest()
        assert manifest["kind"] == "segmented"
        assert manifest["live"] == 6
        assert manifest["buffer"] == 1
        assert manifest["tombstones"] == 1
        assert sum(seg["objects"] for seg in manifest["segments"]) == 6
        assert sum(seg["live"] for seg in manifest["segments"]) == 5
