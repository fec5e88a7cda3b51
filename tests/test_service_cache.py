"""Tests for the epoch-keyed LRU result cache.

The two load-bearing properties: keys embed the engine epoch (so churn
invalidates by construction), and every entry is a defensive copy both
on the way in and on the way out (so no two clients — and never the
cache itself — alias one mutable stats object).
"""

from __future__ import annotations

import pytest

from repro import Query, Rect, SearchResult, SearchStats
from repro.service import ResultCache


def make_query(x: float = 0.0, tokens=("a", "b"), tau: float = 0.3) -> Query:
    return Query(Rect(x, 0.0, x + 10.0, 10.0), frozenset(tokens), tau, tau)


def make_result(answers=(1, 2, 3), candidates: int = 9) -> SearchResult:
    return SearchResult(
        answers=list(answers), stats=SearchStats(candidates=candidates, results=len(answers))
    )


class TestKeyIsTheQueryValue:
    """Queries equal as values share one entry; any field (or the
    epoch) that differs gets its own."""

    def test_token_order_is_canonicalized(self):
        cache = ResultCache(capacity=4)
        cache.put(5, Query(Rect(0, 0, 1, 1), frozenset(["x", "y", "z"]), 0.2, 0.2), make_result())
        # Query normalises any token iterable, in any order, to one frozenset.
        for tokens in (frozenset(["z", "x", "y"]), ["y", "z", "x"], ("z", "y", "x", "x")):
            assert cache.get(5, Query(Rect(0, 0, 1, 1), tokens, 0.2, 0.2)) is not None
        assert len(cache) == 1 and cache.hits == 3

    def test_numeric_spelling_of_coordinates_is_canonicalized(self):
        cache = ResultCache(capacity=4)
        cache.put(0, Query(Rect(0, 0, 1, 1), frozenset("a"), 0.5, 0), make_result())
        assert cache.get(0, Query(Rect(0.0, 0.0, 1.0, 1.0), frozenset("a"), 0.5, 0.0)) is not None
        assert cache.get(0, Query(Rect(-0.0, 0.0, 1.0, 1.0), frozenset("a"), 0.5, -0.0)) is not None
        cache.put(0, Query(Rect(-0.0, -0.0, 1, 1), frozenset("a"), 0.5, 0.0), make_result())
        assert len(cache) == 1

    def test_epoch_distinguishes_keys(self):
        cache = ResultCache(capacity=4)
        q = make_query()
        cache.put(1, q, make_result())
        assert cache.get(2, q) is None
        cache.put(2, q, make_result())
        assert len(cache) == 2

    def test_value_fields_distinguish_keys(self):
        cache = ResultCache(capacity=8)
        cache.put(0, make_query(), make_result())
        assert cache.get(0, make_query(x=1.0)) is None
        assert cache.get(0, make_query(tokens=("a",))) is None
        assert cache.get(0, make_query(tau=0.4)) is None
        base = make_query()
        assert cache.get(0, Query(base.region, base.tokens, 0.3, 0.4)) is None
        assert cache.get(0, Query(base.region, base.tokens, 0.4, 0.3)) is None
        assert cache.get(0, make_query()) is not None


class TestLookupAndLRU:
    def test_miss_then_hit(self):
        cache = ResultCache(capacity=4)
        q = make_query()
        assert cache.get(0, q) is None
        cache.put(0, q, make_result())
        hit = cache.get(0, q)
        assert hit is not None and hit.answers == [1, 2, 3]
        assert cache.hits == 1 and cache.misses == 1 and cache.stores == 1

    def test_epoch_bump_misses_by_construction(self):
        cache = ResultCache(capacity=4)
        q = make_query()
        cache.put(0, q, make_result())
        assert cache.get(1, q) is None  # the whole invalidation story

    def test_lru_evicts_oldest(self):
        cache = ResultCache(capacity=2)
        q0, q1, q2 = make_query(0.0), make_query(1.0), make_query(2.0)
        cache.put(0, q0, make_result())
        cache.put(0, q1, make_result())
        cache.put(0, q2, make_result())  # evicts q0
        assert cache.evictions == 1
        assert cache.get(0, q0) is None
        assert cache.get(0, q1) is not None and cache.get(0, q2) is not None

    def test_get_refreshes_recency(self):
        cache = ResultCache(capacity=2)
        q0, q1, q2 = make_query(0.0), make_query(1.0), make_query(2.0)
        cache.put(0, q0, make_result())
        cache.put(0, q1, make_result())
        cache.get(0, q0)  # q0 now most-recent; q1 is the LRU victim
        cache.put(0, q2, make_result())
        assert cache.get(0, q0) is not None
        assert cache.get(0, q1) is None

    def test_put_overwrites_in_place(self):
        cache = ResultCache(capacity=2)
        q = make_query()
        cache.put(0, q, make_result(answers=(1,)))
        cache.put(0, q, make_result(answers=(7, 8)))
        assert len(cache) == 1
        assert cache.get(0, q).answers == [7, 8]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)


class TestInvalidation:
    def test_drop_stale_frees_old_epochs(self):
        cache = ResultCache(capacity=8)
        for i, epoch in enumerate((0, 0, 1, 2)):
            cache.put(epoch, make_query(float(i)), make_result())
        dropped = cache.drop_stale(2)
        assert dropped == 3
        assert len(cache) == 1
        assert cache.invalidated == 3
        assert cache.get(2, make_query(3.0)) is not None

    def test_put_below_epoch_floor_is_refused(self):
        """A result computed at epoch E landing after drop_stale(E+1)
        must not consume capacity — it could never be served again."""
        cache = ResultCache(capacity=2)
        cache.drop_stale(5)
        cache.put(4, make_query(0.0), make_result())
        assert len(cache) == 0
        assert cache.stale_puts == 1
        assert cache.counters()["stale_puts"] == 1
        # Puts at (or beyond) the floor still store normally.
        cache.put(5, make_query(1.0), make_result())
        assert len(cache) == 1 and cache.stores == 1

    def test_clear(self):
        cache = ResultCache(capacity=8)
        cache.put(0, make_query(), make_result())
        cache.clear()
        assert len(cache) == 0 and cache.invalidated == 1

    def test_counters_shape(self):
        cache = ResultCache(capacity=8)
        cache.put(0, make_query(), make_result())
        cache.get(0, make_query())
        counters = cache.counters()
        assert set(counters) == {
            "size", "encoded", "capacity", "hits", "misses", "hit_rate", "stores",
            "evictions", "invalidated", "stale_puts",
        }
        assert counters["size"] == 1 and counters["capacity"] == 8
        assert counters["hits"] == 1 and counters["misses"] == 0
        assert counters["hit_rate"] == 1.0


def encode(result: SearchResult) -> bytes:
    return repr(result.answers).encode()


class TestEncodedSlot:
    """``get_encoded`` keeps a hit's bytes beside its entry."""

    def test_encodes_on_the_first_hit_only(self):
        cache = ResultCache(capacity=4)
        q = make_query()
        calls = []

        def counting(result):
            calls.append(result)
            return encode(result)

        assert cache.get_encoded(0, q, counting) is None
        cache.put(0, q, make_result())
        first = cache.get_encoded(0, q, counting)
        assert first == b"[1, 2, 3]"
        assert cache.get_encoded(0, q, counting) is first
        assert len(calls) == 1
        assert cache.hits == 2 and cache.misses == 1
        assert cache.get(0, q).answers == [1, 2, 3]  # the result is still served too
        assert cache.counters()["encoded"] == 1

    def test_a_put_during_encoding_keeps_the_new_entry_bare(self):
        cache = ResultCache(capacity=4)
        q = make_query()
        cache.put(0, q, make_result(answers=(1,)))

        def racing(result):
            cache.put(0, q, make_result(answers=(2,)))  # replaced mid-encode
            return encode(result)

        assert cache.get_encoded(0, q, racing) == b"[1]"
        assert cache.counters()["encoded"] == 0
        assert cache.get_encoded(0, q, encode) == b"[2]"

    def test_the_slot_leaves_with_its_entry(self):
        cache = ResultCache(capacity=2)
        for epoch, x in ((0, 0.0), (0, 1.0), (1, 2.0), (1, 3.0)):
            cache.put(epoch, make_query(x), make_result())
            cache.get_encoded(epoch, make_query(x), encode)
            counters = cache.counters()
            assert counters["encoded"] <= counters["size"]
        assert cache.evictions == 2 and cache.counters()["encoded"] == 2
        cache.put(2, make_query(4.0), make_result())
        cache.drop_stale(2)
        assert cache.counters()["size"] == 1 and cache.counters()["encoded"] == 0
        cache.get_encoded(2, make_query(4.0), encode)
        assert cache.counters()["encoded"] == 1
        cache.clear()
        assert cache.counters()["encoded"] == 0
        assert cache.get_encoded(2, make_query(4.0), encode) is None


class TestDefensiveCopies:
    """The aliasing regression suite (satellite of this PR)."""

    def test_two_hits_never_share_objects(self):
        cache = ResultCache(capacity=4)
        q = make_query()
        cache.put(0, q, make_result())
        first, second = cache.get(0, q), cache.get(0, q)
        assert first is not second
        assert first.answers is not second.answers
        assert first.stats is not second.stats

    def test_mutating_a_hit_does_not_poison_later_hits(self):
        cache = ResultCache(capacity=4)
        q = make_query()
        cache.put(0, q, make_result(answers=(1, 2, 3), candidates=9))
        first = cache.get(0, q)
        # A client merging stats into workload totals, or truncating
        # answers for display, must only affect its own copy.
        first.answers.append(999)
        first.stats.candidates = 12345
        first.stats.merge(SearchStats(results=7))
        second = cache.get(0, q)
        assert second.answers == [1, 2, 3]
        assert second.stats.candidates == 9
        assert second.stats.results == 3

    def test_mutating_the_source_after_put_does_not_poison_the_cache(self):
        cache = ResultCache(capacity=4)
        q = make_query()
        original = make_result(answers=(4, 5))
        cache.put(0, q, original)
        original.answers.clear()
        original.stats.results = -1
        hit = cache.get(0, q)
        assert hit.answers == [4, 5]
        assert hit.stats.results == 2

    def test_search_result_copy_is_deep_for_answers_and_stats(self):
        result = make_result()
        dup = result.copy()
        assert dup is not result
        assert dup.answers == result.answers and dup.answers is not result.answers
        assert dup.stats is not result.stats
        assert dup.stats == result.stats
