"""Tests for the disk I/O cost model."""

from __future__ import annotations

import pytest

from repro import build_method
from repro.core.errors import ConfigurationError
from repro.index.iomodel import BufferPool, charge_method_io, compare_methods_io


class TestBufferPool:
    def test_cold_then_hit(self):
        pool = BufferPool(capacity_pages=4)
        assert pool.access("p1") is False
        assert pool.access("p1") is True
        assert pool.logical_reads == 2
        assert pool.physical_reads == 1

    def test_lru_eviction(self):
        pool = BufferPool(capacity_pages=2)
        pool.access("a")
        pool.access("b")
        pool.access("a")        # refresh a
        pool.access("c")        # evicts b
        assert pool.access("a") is True
        assert pool.access("b") is False

    def test_zero_capacity_all_misses(self):
        pool = BufferPool(capacity_pages=0)
        pool.access("x")
        pool.access("x")
        assert pool.physical_reads == 2

    def test_access_run(self):
        pool = BufferPool(capacity_pages=16)
        pool.access_run("list", 3)
        assert pool.logical_reads == 3
        assert pool.physical_reads == 3
        pool.access_run("list", 3)
        assert pool.physical_reads == 3  # all hits now

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            BufferPool(capacity_pages=-1)

    def test_reset(self):
        pool = BufferPool(4)
        pool.access("x")
        pool.reset_counters()
        assert pool.logical_reads == 0 and pool.physical_reads == 0


class TestChargeMethodIO:
    @pytest.fixture(scope="class")
    def methods(self, twitter_small, twitter_small_weighter):
        return {
            name: build_method(
                twitter_small, name, twitter_small_weighter,
                **({"granularity": 16} if name in ("grid", "hash-hybrid") else
                   {"mt": 8, "max_level": 5} if name == "seal" else {}),
            )
            for name in ("token", "grid", "hash-hybrid", "seal",
                          "keyword-first", "spatial-first", "irtree")
        }

    def test_all_modelled_methods_charge(self, methods, twitter_small_queries):
        queries = list(twitter_small_queries)
        for name, method in methods.items():
            report = charge_method_io(method, queries)
            assert report.physical_reads > 0, name
            assert report.logical_reads >= report.physical_reads, name
            assert report.io_ms_per_query >= 0.0

    def test_naive_not_modelled(self, twitter_small, twitter_small_weighter, twitter_small_queries):
        naive = build_method(twitter_small, "naive", twitter_small_weighter)
        with pytest.raises(ConfigurationError):
            charge_method_io(naive, list(twitter_small_queries))

    def test_irtree_reads_dominate_seal(self, methods, twitter_small):
        """The paper's disk-resident story: the IR-tree touches far more
        pages than SEAL (per-node inverted files at every visited node).

        Large-region queries, where the gap is decisive (~1.6×):
        small-region workloads on this 400-object corpus land within ±1
        page of parity, which flips with PYTHONHASHSEED-dependent build
        iteration order and made this test flaky."""
        from repro.datasets import generate_queries

        queries = list(generate_queries(
            twitter_small, "large", num_queries=10, seed=3, tau_r=0.2, tau_t=0.2
        ))
        ir = charge_method_io(methods["irtree"], queries)
        seal = charge_method_io(methods["seal"], queries)
        assert ir.logical_reads > seal.logical_reads

    def test_warm_pool_reduces_physical_reads(self, methods, twitter_small_queries):
        queries = list(twitter_small_queries) * 2
        cold = charge_method_io(methods["token"], queries, pool=BufferPool(0))
        warm = charge_method_io(methods["token"], queries, pool=BufferPool(100_000))
        assert warm.physical_reads < cold.physical_reads
        assert warm.logical_reads == cold.logical_reads

    def test_latency_scales_io_time(self, methods, twitter_small_queries):
        queries = list(twitter_small_queries)
        fast = charge_method_io(methods["grid"], queries, read_latency_ms=0.01)
        slow = charge_method_io(methods["grid"], queries, read_latency_ms=1.0)
        assert slow.io_ms_per_query == pytest.approx(100 * fast.io_ms_per_query)

    @pytest.mark.parametrize("name, params", [("token", {}), ("grid", {"granularity": 64})])
    def test_plain_filter_is_charged_for_the_lists_it_opens(self, name, params):
        """Regression: a ``prefix_pruning=False`` filter opens its whole
        signature's lists in full, but was charged for the Lemma-2 prefix
        at a bound its raw-weight postings give no meaning to (172 page
        reads for the 255 lists the token filter opens here)."""
        from repro.core.stats import SearchStats
        from repro.datasets import generate_queries, generate_twitter

        corpus = generate_twitter(2000, seed=42)
        queries = list(generate_queries(corpus, "small", num_queries=20, seed=3,
                                        tau_r=0.2, tau_t=0.2))
        plain = build_method(corpus, name, prefix_pruning=False, **params)
        plus = build_method(corpus, name, **params)
        opened = SearchStats()
        for query in queries:
            elements, bound, t_bound = plain.probes(query)
            assert (bound, t_bound) == (float("-inf"), None)
            stats = SearchStats()
            plain.candidates(query, stats)
            assert len(elements) >= stats.lists_probed  # (absent lists are skipped)
            opened.merge(stats)
        assert opened.lists_probed > 0
        charged = charge_method_io(plain, queries, pool=BufferPool(0))
        assert charged.logical_reads >= opened.lists_probed
        assert charged.logical_reads >= charge_method_io(
            plus, queries, pool=BufferPool(0)
        ).logical_reads

    def test_compare_methods_io(self, methods, twitter_small_queries):
        reports = compare_methods_io(methods, list(twitter_small_queries))
        assert set(reports) == set(methods)
        for name, report in reports.items():
            assert report.physical_reads > 0, name
