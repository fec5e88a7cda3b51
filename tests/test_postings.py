"""Tests for the reference posting lists (``tests/reference_postings.py``)
and the directory surface of the inverted index they are the oracle of."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.stats import SearchStats
from repro.index.inverted import InvertedIndex

from tests.reference_postings import DualBoundPostingList, PostingList, ReferenceIndex


class TestPostingList:
    def test_figure5_retrieval(self):
        """Figure 5: g14's list holds o1 (bound 900) and o2 (bound 550);
        with cR = 600 only o1 is retrieved."""
        plist = PostingList()
        plist.add(1, 900.0)
        plist.add(2, 550.0)
        plist.freeze()
        assert list(plist.retrieve(600.0)) == [1]

    def test_retrieval_sorted_desc(self):
        plist = PostingList()
        for oid, bound in [(1, 5.0), (2, 9.0), (3, 7.0)]:
            plist.add(oid, bound)
        plist.freeze()
        assert list(plist.retrieve(0.0)) == [2, 3, 1]

    def test_boundary_inclusive(self):
        plist = PostingList()
        plist.add(1, 5.0)
        plist.freeze()
        assert list(plist.retrieve(5.0)) == [1]
        assert list(plist.retrieve(5.0001)) == []

    def test_add_after_freeze_rejected(self):
        plist = PostingList()
        plist.freeze()
        with pytest.raises(RuntimeError):
            plist.add(1, 1.0)

    def test_retrieve_before_freeze_rejected(self):
        plist = PostingList()
        plist.add(1, 1.0)
        with pytest.raises(RuntimeError):
            plist.retrieve(0.0)

    def test_freeze_idempotent(self):
        plist = PostingList()
        plist.add(1, 1.0)
        plist.freeze()
        plist.freeze()
        assert len(plist) == 1

    def test_iter_both_phases(self):
        plist = PostingList()
        plist.add(1, 2.0)
        plist.add(2, 4.0)
        staged = sorted(plist)
        plist.freeze()
        frozen = sorted(plist)
        assert staged == frozen == [(1, 2.0), (2, 4.0)]

    def test_tie_bounds_stable_by_oid(self):
        plist = PostingList()
        plist.add(9, 1.0)
        plist.add(3, 1.0)
        plist.freeze()
        assert list(plist.retrieve(1.0)) == [3, 9]


class TestDualBoundPostingList:
    def test_both_bounds_must_pass(self):
        plist = DualBoundPostingList()
        plist.add(1, 900.0, 1.9)   # passes both
        plist.add(2, 900.0, 0.3)   # fails textual
        plist.add(3, 100.0, 1.9)   # fails spatial
        plist.freeze()
        oids, scanned = plist.retrieve(600.0, 0.5)
        assert oids == [1]
        assert scanned == 2  # entries 1 and 2 pass the spatial cut

    def test_scanned_counts_spatial_head(self):
        plist = DualBoundPostingList()
        for i in range(5):
            plist.add(i, float(10 - i), 1.0)
        plist.freeze()
        _, scanned = plist.retrieve(8.0, 0.0)
        assert scanned == 3  # bounds 10, 9, 8

    def test_lifecycle_guards(self):
        plist = DualBoundPostingList()
        with pytest.raises(RuntimeError):
            plist.retrieve(0.0, 0.0)
        plist.freeze()
        with pytest.raises(RuntimeError):
            plist.add(0, 1.0, 1.0)

    def test_iter(self):
        plist = DualBoundPostingList()
        plist.add(1, 2.0, 3.0)
        plist.freeze()
        assert list(plist) == [(1, 2.0, 3.0)]


class TestReferenceIndex:
    def test_lists_are_created_in_posting_order(self):
        index = ReferenceIndex()
        index.add("b", 0, 2.0)
        index.add("a", 0, 1.5)
        index.add("b", 1, 0.5)
        index.freeze()
        assert list(index.lists) == ["b", "a"]
        assert index.lists["b"].columns() == ([0, 1], [-2.0, -0.5])

    def test_single_bound_miss_counts_as_a_probe(self):
        index = ReferenceIndex()
        index.add("a", 0, 1.5)
        index.add("a", 1, 0.5)
        stats = SearchStats()
        assert index.freeze().union_heads(["a", "missing"], 1.0, None, stats) == {0}
        assert (stats.lists_probed, stats.entries_retrieved, stats.entries_matched) == (2, 1, 1)

    def test_dual_bound_miss_does_not(self):
        index = ReferenceIndex(dual=True)
        index.add("a", 0, 1.5, 0.2)
        index.add("a", 1, 1.5, 0.9)
        stats = SearchStats()
        assert index.freeze().union_heads(["a", "missing"], 1.0, 0.5, stats) == {1}
        assert (stats.lists_probed, stats.entries_retrieved, stats.entries_matched) == (1, 2, 1)


class TestInvertedIndex:
    def test_directory_surface(self):
        index = InvertedIndex.from_postings([5, 5, 2], [0, 1, 0], [1.5, 0.5, 2.0])
        assert list(index.probe(5, 1.0)) == [0]
        assert list(index.probe(3, 0.0)) == []
        assert 5 in index and 3 not in index
        assert len(index) == 2
        assert index.num_postings() == 3

        assert index.list_lengths().tolist() == [1, 2]  # code order: 2, then 5
        assert index.t_bounds is None and index.rows_unique

    def test_empty_index(self):
        index = InvertedIndex.from_postings([], [], [])
        assert len(index) == 0 and index.num_postings() == 0
        assert index.list_lengths().tolist() == []
        assert list(index.probe(0, 0.0)) == []
        stats = SearchStats()
        assert len(index.union_heads([1, 2], 0.0, None, stats)) == 0
        assert (stats.lists_probed, stats.entries_retrieved) == (2, 0)


@given(
    st.lists(st.tuples(st.integers(0, 50), st.floats(0, 100)), min_size=0, max_size=40),
    st.floats(0, 100),
)
def test_retrieve_equals_linear_scan(postings, threshold):
    plist = PostingList()
    for oid, bound in postings:
        plist.add(oid, bound)
    plist.freeze()
    expected = sorted(oid for oid, bound in postings if bound >= threshold)
    assert sorted(plist.retrieve(threshold)) == expected


@given(
    st.lists(
        st.tuples(st.integers(0, 50), st.floats(0, 100), st.floats(0, 10)),
        min_size=0,
        max_size=40,
    ),
    st.floats(0, 100),
    st.floats(0, 10),
)
def test_dual_retrieve_equals_linear_scan(postings, min_r, min_t):
    plist = DualBoundPostingList()
    for oid, r, t in postings:
        plist.add(oid, r, t)
    plist.freeze()
    expected = sorted(oid for oid, r, t in postings if r >= min_r and t >= min_t)
    oids, scanned = plist.retrieve(min_r, min_t)
    assert sorted(oids) == expected
    assert scanned >= len(oids)
