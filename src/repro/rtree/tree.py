"""A from-scratch static R-tree, built once by STR bulk loading.

The tree stores ``(Rect, oid)`` leaf entries.  Internal entries hold the
MBR of their subtree.  Both R-tree baselines index a static corpus, so
the tree is packed once (:meth:`RTree.bulk_load`) and never mutated.
One query mode covers what the baselines need:

* :meth:`RTree.search_min_overlap` — all oids whose *overlap area* with
  the query rectangle is at least a bound, pruning every subtree whose
  node MBR already overlaps less than the bound (the ``|q.R ∩ n.R| ≥ cR``
  test of the spatial-first baseline, Section 2.3).

The node structure is deliberately public (``root``, ``Node.entries``,
``Entry.child`` / ``Entry.oid``): the IR-tree baseline decorates nodes
with per-node token sets and needs to traverse them itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

from repro.core.errors import ConfigurationError
from repro.geometry import Rect


@dataclass(slots=True)
class Entry:
    """One slot in a node: an MBR plus either a child node or a leaf oid."""

    mbr: Rect
    child: "Node | None" = None
    oid: int | None = None

    def __reduce__(self):
        return (type(self), (self.mbr, self.child, self.oid))


class Node:
    """An R-tree node; ``is_leaf`` nodes hold oid entries, others children."""

    __slots__ = ("is_leaf", "entries")

    def __init__(self, is_leaf: bool, entries: List[Entry] | None = None) -> None:
        self.is_leaf = is_leaf
        self.entries: List[Entry] = entries if entries is not None else []

    def mbr(self) -> Rect:
        """The tight MBR of this node's entries."""
        if not self.entries:
            raise ValueError("empty node has no MBR")
        box = self.entries[0].mbr
        for entry in self.entries[1:]:
            box = box.union(entry.mbr)
        return box

    def __len__(self) -> int:
        return len(self.entries)


class RTree:
    """A static R-tree over ``(Rect, oid)`` items; build with :meth:`bulk_load`.

    Args:
        max_entries: Node capacity ``M`` (fan-out); the paper's IR-tree
            example uses 3, realistic disk pages use 30–100.
    """

    def __init__(self, max_entries: int = 32) -> None:
        if max_entries < 2:
            raise ConfigurationError(f"max_entries must be >= 2, got {max_entries}")
        self.max_entries = max_entries
        self.root: Node = Node(is_leaf=True)
        self._size = 0

    @classmethod
    def bulk_load(cls, items: Sequence[Tuple[Rect, int]], max_entries: int = 32) -> "RTree":
        """Build a packed tree with Sort-Tile-Recursive (STR).

        STR sorts items by centre-x, slices them into vertical slabs of
        ``ceil(sqrt(n/M))`` runs, sorts each slab by centre-y, and packs
        consecutive runs of ``M`` into leaves; the procedure repeats one
        level up until a single root remains.  The result is the compact,
        low-overlap static tree the paper's disk-resident indexes assume.
        """
        tree = cls(max_entries=max_entries)
        if not items:
            return tree
        leaf_entries = [Entry(mbr=rect, oid=oid) for rect, oid in items]
        level_nodes = tree._str_pack(leaf_entries, is_leaf=True)
        while len(level_nodes) > 1:
            parent_entries = [Entry(mbr=node.mbr(), child=node) for node in level_nodes]
            level_nodes = tree._str_pack(parent_entries, is_leaf=False)
        tree.root = level_nodes[0]
        tree._size = len(items)
        return tree

    def _str_pack(self, entries: List[Entry], is_leaf: bool) -> List[Node]:
        capacity = self.max_entries
        num_nodes = math.ceil(len(entries) / capacity)
        num_slabs = math.ceil(math.sqrt(num_nodes))
        per_slab = num_slabs * capacity
        entries = sorted(entries, key=lambda e: (e.mbr.x1 + e.mbr.x2))
        nodes: List[Node] = []
        for slab_start in range(0, len(entries), per_slab):
            slab = sorted(
                entries[slab_start : slab_start + per_slab],
                key=lambda e: (e.mbr.y1 + e.mbr.y2),
            )
            for run_start in range(0, len(slab), capacity):
                nodes.append(Node(is_leaf=is_leaf, entries=slab[run_start : run_start + capacity]))
        return nodes

    def search_min_overlap(self, rect: Rect, min_area: float) -> List[int]:
        """oids with ``|rect ∩ item| >= min_area``.

        Subtrees are pruned as soon as their node MBR's overlap with
        ``rect`` falls below ``min_area`` — the overlap with any descendant
        can only be smaller.  A zero bound prunes nothing: disjoint items
        have overlap 0 ≥ 0 but can never raise spatial similarity above 0,
        so callers pass the ``cR`` they mean.
        """
        out: List[int] = []
        if self._size == 0:
            return out
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                for entry in node.entries:
                    if entry.mbr.intersection_area(rect) >= min_area:
                        out.append(entry.oid)  # type: ignore[arg-type]
            else:
                for entry in node.entries:
                    if entry.mbr.intersection_area(rect) >= min_area:
                        stack.append(entry.child)  # type: ignore[arg-type]
        return out

    def __len__(self) -> int:
        return self._size

    def iter_nodes(self) -> Iterator[Node]:
        """All nodes, parents before children (used by IR-tree decoration)."""
        if self._size == 0:
            return
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                for entry in node.entries:
                    stack.append(entry.child)  # type: ignore[arg-type]

    def node_count(self) -> int:
        return sum(1 for _ in self.iter_nodes())
