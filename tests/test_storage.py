"""Tests for the byte-accounting storage model (Table 1 sizes)."""

from __future__ import annotations

import pytest

from repro.index.inverted import InvertedIndex
from repro.index.storage import (
    BOUND_BYTES,
    OFFSET_BYTES,
    OID_BYTES,
    PAGE_BYTES,
    key_bytes,
    measure_index,
    rtree_size_bytes,
)


class TestKeyBytes:
    def test_str(self):
        assert key_bytes("tea") == 3

    def test_unicode(self):
        assert key_bytes("café") == 5

    def test_int(self):
        assert key_bytes(42) == 4

    def test_tuple(self):
        assert key_bytes(("tea", 42)) == 7


class TestMeasureIndex:
    def _index(self):
        return InvertedIndex.from_postings(
            ["tea", "coffee"],
            [0] * 10 + [1],
            list(range(10)) + [0],
            [float(oid) for oid in range(10)] + [1.0],
        )

    def test_counts(self):
        report = measure_index(self._index(), bounds_per_posting=1)
        assert report.num_lists == 2
        assert report.num_postings == 11

    def test_posting_bytes(self):
        report = measure_index(self._index(), bounds_per_posting=1)
        assert report.posting_bytes == 11 * (OID_BYTES + BOUND_BYTES)

    def test_zero_bounds(self):
        report = measure_index(self._index(), bounds_per_posting=0)
        assert report.posting_bytes == 11 * OID_BYTES

    def test_directory(self):
        report = measure_index(self._index(), bounds_per_posting=1)
        assert report.directory_bytes == (3 + OFFSET_BYTES) + (6 + OFFSET_BYTES)

    def test_paged_mode_rounds_up_per_list(self):
        report = measure_index(self._index(), bounds_per_posting=1, paged=True)
        assert report.page_bytes == 2 * PAGE_BYTES  # two small lists, one page each

    def test_packed_default(self):
        report = measure_index(self._index(), bounds_per_posting=1)
        assert report.page_bytes == report.posting_bytes

    def test_total(self):
        report = measure_index(self._index(), bounds_per_posting=1)
        assert report.total_bytes == report.directory_bytes + report.page_bytes
        assert report.total_mb == pytest.approx(report.total_bytes / 1048576)

    def test_dual_bound_sizes_larger(self):
        single = InvertedIndex.from_postings(["k"], [0] * 5, range(5), [1.0] * 5)
        dual = InvertedIndex.from_postings(["k"], [0] * 5, range(5), [1.0] * 5, [1.0] * 5)
        s = measure_index(single, bounds_per_posting=1, paged=False)
        d = measure_index(dual, bounds_per_posting=2, paged=False)
        assert d.posting_bytes > s.posting_bytes


class TestRTreeSize:
    def test_nodes_only(self):
        assert rtree_size_bytes(10, 100) == 10 * PAGE_BYTES

    def test_with_tokens(self):
        assert rtree_size_bytes(10, 100, tokens_indexed=50) == 10 * PAGE_BYTES + 50 * 16
