"""A from-scratch R-tree: STR bulk load + Guttman quadratic-split inserts.

The tree stores ``(Rect, oid)`` leaf entries.  Internal entries hold the
MBR of their subtree.  Two query modes cover everything the baselines
need:

* :meth:`RTree.search_intersecting` — all oids whose MBR intersects a
  rectangle (the spatial-first candidate generator).
* :meth:`RTree.search_min_overlap` — all oids whose *overlap area* with
  the query rectangle is at least a bound, pruning every subtree whose
  node MBR already overlaps less than the bound (the ``|q.R ∩ n.R| ≥ cR``
  test the IR-tree baseline uses, Section 2.3).

The node structure is deliberately public (``root``, ``Node.entries``,
``Entry.child`` / ``Entry.oid``): the IR-tree baseline decorates nodes
with per-node token sets and needs to traverse them itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, List, Sequence, Tuple

from repro.core.errors import ConfigurationError
from repro.geometry import Rect


@dataclass(slots=True)
class Entry:
    """One slot in a node: an MBR plus either a child node or a leaf oid."""

    mbr: Rect
    child: "Node | None" = None
    oid: int | None = None


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
    """An R-tree over ``(Rect, oid)`` items.

    Args:
        max_entries: Node capacity ``M`` (fan-out); the paper's IR-tree
            example uses 3, realistic disk pages use 30–100.
        min_entries: Underflow bound ``m``; defaults to ``max(2, M // 2)``
            capped at ``M // 2`` per Guttman's requirement ``m <= M/2``.
    """

    def __init__(self, max_entries: int = 32, min_entries: int | None = None) -> None:
        if max_entries < 2:
            raise ConfigurationError(f"max_entries must be >= 2, got {max_entries}")
        self.max_entries = max_entries
        self.min_entries = min_entries if min_entries is not None else max(1, max_entries // 2)
        if not (1 <= self.min_entries <= max_entries // 2):
            raise ConfigurationError(
                f"min_entries must be in [1, max_entries//2], got {self.min_entries}"
            )
        self.root: Node = Node(is_leaf=True)
        self._size = 0
        self._height = 1

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def bulk_load(
        cls,
        items: Sequence[Tuple[Rect, int]],
        max_entries: int = 32,
        min_entries: int | None = None,
    ) -> "RTree":
        """Build a packed tree with Sort-Tile-Recursive (STR).

        STR sorts items by centre-x, slices them into vertical slabs of
        ``ceil(sqrt(n/M))`` runs, sorts each slab by centre-y, and packs
        consecutive runs of ``M`` into leaves; the procedure repeats one
        level up until a single root remains.  The result is the compact,
        low-overlap static tree the paper's disk-resident indexes assume.
        """
        tree = cls(max_entries=max_entries, min_entries=min_entries)
        if not items:
            return tree
        leaf_entries = [Entry(mbr=rect, oid=oid) for rect, oid in items]
        level_nodes = tree._str_pack(leaf_entries, is_leaf=True)
        height = 1
        while len(level_nodes) > 1:
            parent_entries = [Entry(mbr=node.mbr(), child=node) for node in level_nodes]
            level_nodes = tree._str_pack(parent_entries, is_leaf=False)
            height += 1
        tree.root = level_nodes[0]
        tree._size = len(items)
        tree._height = height
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

    def insert(self, rect: Rect, oid: int) -> None:
        """Guttman insert: ChooseLeaf by least enlargement, quadratic split."""
        entry = Entry(mbr=rect, oid=oid)
        split = self._insert_into(self.root, entry)
        if split is not None:
            old_root, new_node = self.root, split
            self.root = Node(
                is_leaf=False,
                entries=[
                    Entry(mbr=old_root.mbr(), child=old_root),
                    Entry(mbr=new_node.mbr(), child=new_node),
                ],
            )
            self._height += 1
        self._size += 1

    def _insert_into(self, node: Node, entry: Entry) -> Node | None:
        """Insert ``entry`` below ``node``; return the split sibling if any."""
        if node.is_leaf:
            node.entries.append(entry)
        else:
            best = self._choose_subtree(node, entry.mbr)
            split = self._insert_into(best.child, entry)  # type: ignore[arg-type]
            best.mbr = best.mbr.union(entry.mbr)
            if split is not None:
                node.entries.append(Entry(mbr=split.mbr(), child=split))
                # The original child's MBR may have shrunk after the split.
                best.mbr = best.child.mbr()  # type: ignore[union-attr]
        if len(node.entries) > self.max_entries:
            return self._quadratic_split(node)
        return None

    @staticmethod
    def _choose_subtree(node: Node, rect: Rect) -> Entry:
        best = node.entries[0]
        best_growth = best.mbr.enlargement(rect)
        best_area = best.mbr.area
        for entry in node.entries[1:]:
            growth = entry.mbr.enlargement(rect)
            area = entry.mbr.area
            if growth < best_growth or (growth == best_growth and area < best_area):
                best, best_growth, best_area = entry, growth, area
        return best

    def _quadratic_split(self, node: Node) -> Node:
        """Split an overflowing node in place; return the new sibling."""
        entries = node.entries
        seed_a, seed_b = self._pick_seeds(entries)
        group_a = [entries[seed_a]]
        group_b = [entries[seed_b]]
        mbr_a, mbr_b = group_a[0].mbr, group_b[0].mbr
        remaining = [e for i, e in enumerate(entries) if i not in (seed_a, seed_b)]
        min_fill = self.min_entries
        total = len(entries)
        while remaining:
            # Force-assign when one group must absorb everything left to
            # reach the minimum fill.
            if len(group_a) + len(remaining) == min_fill:
                group_a.extend(remaining)
                for e in remaining:
                    mbr_a = mbr_a.union(e.mbr)
                break
            if len(group_b) + len(remaining) == min_fill:
                group_b.extend(remaining)
                for e in remaining:
                    mbr_b = mbr_b.union(e.mbr)
                break
            entry, prefer_a = self._pick_next(remaining, mbr_a, mbr_b)
            remaining.remove(entry)
            if prefer_a:
                group_a.append(entry)
                mbr_a = mbr_a.union(entry.mbr)
            else:
                group_b.append(entry)
                mbr_b = mbr_b.union(entry.mbr)
        assert len(group_a) + len(group_b) == total
        node.entries = group_a
        return Node(is_leaf=node.is_leaf, entries=group_b)

    @staticmethod
    def _pick_seeds(entries: List[Entry]) -> Tuple[int, int]:
        """The pair wasting the most area when paired (Guttman PickSeeds)."""
        worst = -math.inf
        seeds = (0, 1)
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                waste = (
                    entries[i].mbr.union(entries[j].mbr).area
                    - entries[i].mbr.area
                    - entries[j].mbr.area
                )
                if waste > worst:
                    worst = waste
                    seeds = (i, j)
        return seeds

    @staticmethod
    def _pick_next(remaining: List[Entry], mbr_a: Rect, mbr_b: Rect) -> Tuple[Entry, bool]:
        """The entry with the strongest group preference (Guttman PickNext)."""
        best_entry = remaining[0]
        best_diff = -1.0
        prefer_a = True
        for entry in remaining:
            grow_a = mbr_a.enlargement(entry.mbr)
            grow_b = mbr_b.enlargement(entry.mbr)
            diff = abs(grow_a - grow_b)
            if diff > best_diff:
                best_diff = diff
                best_entry = entry
                prefer_a = grow_a < grow_b or (
                    grow_a == grow_b and mbr_a.area <= mbr_b.area
                )
        return best_entry, prefer_a

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def search_intersecting(self, rect: Rect) -> List[int]:
        """oids of all items whose MBR intersects ``rect`` (closed test)."""
        out: List[int] = []
        if self._size == 0:
            return out
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                for entry in node.entries:
                    if entry.mbr.intersects(rect):
                        out.append(entry.oid)  # type: ignore[arg-type]
            else:
                for entry in node.entries:
                    if entry.mbr.intersects(rect):
                        stack.append(entry.child)  # type: ignore[arg-type]
        return out

    def search_min_overlap(self, rect: Rect, min_area: float) -> List[int]:
        """oids with ``|rect ∩ item| >= min_area``.

        Subtrees are pruned as soon as their node MBR's overlap with
        ``rect`` falls below ``min_area`` — the overlap with any descendant
        can only be smaller.  With ``min_area == 0`` this degrades to
        ``search_intersecting`` (a zero bound excludes nothing that
        touches; disjoint items have overlap 0 ≥ 0 but can never raise
        spatial similarity above 0, so callers pass the ``cR`` they mean).
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

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        return self._height

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

    def check_invariants(self) -> None:
        """Validate structural invariants (tests call this after mutations).

        * every internal entry's MBR equals its child's tight MBR;
        * all leaves sit at the same depth;
        * node occupancy within [1, max_entries] (STR bulk loading packs
          tightly and may leave one underfull tail node per level, so the
          Guttman min-fill bound only holds for insert-built trees).

        Raises:
            AssertionError: On any violation.
        """
        if self._size == 0:
            return
        leaf_depths: set[int] = set()

        def walk(node: Node, depth: int) -> None:
            if node is not self.root:
                assert 1 <= len(node.entries) <= self.max_entries, (
                    f"occupancy {len(node.entries)} outside [1, {self.max_entries}]"
                )
            else:
                assert len(node.entries) <= self.max_entries
            if node.is_leaf:
                leaf_depths.add(depth)
                return
            for entry in node.entries:
                assert entry.child is not None
                assert entry.mbr == entry.child.mbr(), "stale internal MBR"
                walk(entry.child, depth + 1)

        walk(self.root, 1)
        assert len(leaf_depths) == 1, f"leaves at multiple depths: {leaf_depths}"
        assert leaf_depths == {self._height}, (
            f"height {self._height} != leaf depth {leaf_depths}"
        )
