"""Tests for the from-scratch static R-tree substrate."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError
from repro.geometry import Rect
from repro.rtree import RTree

from tests.strategies import rects


def brute_min_overlap(items, rect, min_area):
    return sorted(oid for r, oid in items if r.intersection_area(rect) >= min_area)


def assert_invariants(tree):
    """The structure STR packing promises, checked from the public nodes.

    * every internal entry's MBR is its child's tight MBR;
    * all leaves sit at one depth;
    * every node holds between 1 and ``max_entries`` entries (STR packs
      tightly and may leave one underfull tail node per level);
    * the leaves hold exactly the ``len(tree)`` items.

    Returns the leaf depth (1 for a tree that is a single leaf).
    """
    if len(tree) == 0:
        assert list(tree.iter_nodes()) == []
        return 0
    leaf_depths = set()
    leaf_items = 0
    stack = [(tree.root, 1)]
    while stack:
        node, depth = stack.pop()
        assert 1 <= len(node) <= tree.max_entries, (
            f"occupancy {len(node)} outside [1, {tree.max_entries}]"
        )
        if node.is_leaf:
            leaf_depths.add(depth)
            leaf_items += len(node)
            continue
        for entry in node.entries:
            assert entry.child is not None and entry.oid is None
            assert entry.mbr == entry.child.mbr(), "stale internal MBR"
            stack.append((entry.child, depth + 1))
    assert len(leaf_depths) == 1, f"leaves at multiple depths: {leaf_depths}"
    assert leaf_items == len(tree)
    return leaf_depths.pop()


class TestConstruction:
    def test_empty(self):
        tree = RTree()
        assert len(tree) == 0
        assert tree.search_min_overlap(Rect(0, 0, 1, 1), 0.0) == []
        assert assert_invariants(tree) == 0

    def test_bad_max_entries(self):
        with pytest.raises(ConfigurationError):
            RTree(max_entries=1)
        with pytest.raises(ConfigurationError):
            RTree.bulk_load([(Rect(0, 0, 1, 1), 0)], max_entries=1)

    def test_bulk_load_empty(self):
        tree = RTree.bulk_load([])
        assert len(tree) == 0
        assert tree.node_count() == 0

    def test_bulk_load_single(self):
        tree = RTree.bulk_load([(Rect(0, 0, 1, 1), 7)])
        assert tree.search_min_overlap(Rect(0, 0, 2, 2), 0.0) == [7]
        assert tree.search_min_overlap(Rect(0, 0, 2, 2), 1.0) == [7]
        assert tree.search_min_overlap(Rect(0, 0, 2, 2), 1.5) == []
        assert assert_invariants(tree) == 1

    @pytest.mark.parametrize("fanout, level_sizes", [
        (2, [50, 25, 13, 7, 4, 2, 1]),
        (3, [34, 12, 4, 2, 1]),
        (4, [25, 7, 2, 1]),
        (8, [13, 2, 1]),
        (100, [1]),
    ], ids=["fanout-2", "fanout-3", "fanout-4", "fanout-8", "one-leaf"])
    def test_bulk_load_packs_levels(self, fanout, level_sizes):
        """STR fills every node but the last of a level: ``ceil(n / M)``
        nodes per level, up to one root."""
        items = [(Rect(i, 0, i + 0.5, 1), i) for i in range(100)]
        tree = RTree.bulk_load(items, max_entries=fanout)
        assert len(tree) == 100
        assert assert_invariants(tree) == len(level_sizes)
        assert tree.node_count() == sum(level_sizes)

    def test_duplicate_rects_are_kept_apart(self):
        items = [(Rect(1, 1, 2, 2), i) for i in range(10)]
        tree = RTree.bulk_load(items, max_entries=2)
        assert_invariants(tree)
        assert sorted(tree.search_min_overlap(Rect(1, 1, 2, 2), 1.0)) == list(range(10))


class TestQueries:
    @pytest.fixture()
    def items(self):
        return [(Rect(2 * i, 0, 2 * i + 1, 10), i) for i in range(20)]

    def test_min_overlap_prunes(self, items):
        tree = RTree.bulk_load(items, max_entries=4)
        probe = Rect(0, 0, 5, 10)
        # Overlaps: item0 ∩ = 10, item1 ∩ = 10, item2 ∩ = 10.
        assert sorted(tree.search_min_overlap(probe, 5.0)) == brute_min_overlap(items, probe, 5.0)

    def test_min_overlap_zero_returns_touching(self, items):
        tree = RTree.bulk_load(items, max_entries=4)
        probe = Rect(1, 0, 2, 10)  # touches item 0's edge and covers item 1's left edge
        assert sorted(tree.search_min_overlap(probe, 0.0)) == brute_min_overlap(items, probe, 0.0)

    def test_node_count_and_iter(self, items):
        tree = RTree.bulk_load(items, max_entries=4)
        nodes = list(tree.iter_nodes())
        assert nodes[0] is tree.root
        assert tree.node_count() == len(nodes)
        leaves = [n for n in nodes if n.is_leaf]
        assert sum(len(n.entries) for n in leaves) == len(items)


# ----------------------------------------------------------------------
# Property tests: tree answers == brute force
# ----------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    st.lists(rects(), min_size=0, max_size=40),
    rects(),
    st.sampled_from([2, 3, 4, 8]),
    st.sampled_from([0.0, 0.25, 4.0, 50.0]),
)
def test_bulk_load_search_equiv(random_rects, probe, fanout, min_area):
    items = [(r, i) for i, r in enumerate(random_rects)]
    tree = RTree.bulk_load(items, max_entries=fanout)
    assert_invariants(tree)
    assert sorted(tree.search_min_overlap(probe, min_area)) == brute_min_overlap(
        items, probe, min_area
    )


@settings(max_examples=40, deadline=None)
@given(
    st.lists(rects(), min_size=0, max_size=30),
    rects(),
    st.floats(min_value=0.0, max_value=50.0),
)
def test_min_overlap_equiv(random_rects, probe, min_area):
    items = [(r, i) for i, r in enumerate(random_rects)]
    tree = RTree.bulk_load(items, max_entries=4)
    assert sorted(tree.search_min_overlap(probe, min_area)) == brute_min_overlap(
        items, probe, min_area
    )
