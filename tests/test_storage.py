"""Tests for the byte-accounting storage model (Table 1 sizes)."""

from __future__ import annotations

import pytest

from repro.index.inverted import InvertedIndex
from repro.index.storage import (
    BOUND_BYTES,
    OFFSET_BYTES,
    OID_BYTES,
    PAGE_BYTES,
    measure_index,
    rtree_size_bytes,
)


class TestMeasureIndex:
    #: The vocabulary of the two lists below: code 0 is "tea", 1 "coffee".
    KEYS = {"tokens": ["tea", "coffee"]}

    def _index(self):
        return InvertedIndex.from_postings(
            [0] * 10 + [1],
            list(range(10)) + [0],
            [float(oid) for oid in range(10)] + [1.0],
        )

    def test_counts(self):
        report = measure_index(self._index(), bounds_per_posting=1, **self.KEYS)
        assert report.num_lists == 2
        assert report.num_postings == 11

    def test_posting_bytes(self):
        report = measure_index(self._index(), bounds_per_posting=1, **self.KEYS)
        assert report.posting_bytes == 11 * (OID_BYTES + BOUND_BYTES)

    def test_zero_bounds(self):
        report = measure_index(self._index(), bounds_per_posting=0, **self.KEYS)
        assert report.posting_bytes == 11 * OID_BYTES

    def test_directory(self):
        report = measure_index(self._index(), bounds_per_posting=1, **self.KEYS)
        assert report.directory_bytes == (3 + OFFSET_BYTES) + (6 + OFFSET_BYTES)

    def test_directory_of_pairs_prices_token_and_cell(self):
        """Codes ``token_id · span + cell``: UTF-8 token bytes per list plus
        the cell's fixed bytes ("café" is 5 bytes)."""
        index = InvertedIndex.from_postings([0 * 10 + 3, 1 * 10 + 3, 1 * 10 + 7], [0, 1, 2],
                                            [1.0] * 3)
        report = measure_index(index, bounds_per_posting=2, tokens=["tea", "café"], span=10,
                               cell_bytes=4)
        assert report.directory_bytes == (3 + 5 + 5) + 3 * (4 + OFFSET_BYTES)

    def test_paged_mode_rounds_up_per_list(self):
        report = measure_index(
            self._index(), bounds_per_posting=1, **self.KEYS, paged=True
        )
        assert report.page_bytes == 2 * PAGE_BYTES  # two small lists, one page each

    def test_packed_default(self):
        report = measure_index(self._index(), bounds_per_posting=1, **self.KEYS)
        assert report.page_bytes == report.posting_bytes

    def test_total(self):
        report = measure_index(self._index(), bounds_per_posting=1, **self.KEYS)
        assert report.total_bytes == report.directory_bytes + report.page_bytes
        assert report.total_mb == pytest.approx(report.total_bytes / 1048576)

    def test_dual_bound_sizes_larger(self):
        single = InvertedIndex.from_postings([0] * 5, range(5), [1.0] * 5)
        dual = InvertedIndex.from_postings([0] * 5, range(5), [1.0] * 5, [1.0] * 5)
        s = measure_index(single, bounds_per_posting=1, cell_bytes=4)
        d = measure_index(dual, bounds_per_posting=2, cell_bytes=4)
        assert d.posting_bytes > s.posting_bytes


def test_total_sums_every_field():
    from repro.index.storage import IndexSizeReport

    reports = [IndexSizeReport(1, 2, 3, 4, 5), IndexSizeReport(10, 20, 30, 40, 50)]
    assert IndexSizeReport.total(reports) == IndexSizeReport(11, 22, 33, 44, 55)
    assert IndexSizeReport.total(iter(reports[:1])) == reports[0]


class TestRTreeSize:
    def test_nodes_only(self):
        assert rtree_size_bytes(10, 100) == 10 * PAGE_BYTES

    def test_with_tokens(self):
        assert rtree_size_bytes(10, 100, tokens_indexed=50) == 10 * PAGE_BYTES + 50 * 16
