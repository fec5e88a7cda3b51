"""The IR-tree baseline, extended to similarity search (Section 2.3).

An IR-tree [Cong, Jensen, Wu — PVLDB 2009] is an R-tree whose every node
carries an inverted file over the tokens appearing in its subtree.  The
paper adapts it to spatio-textual similarity search: traverse from the
root, descending into a node ``n`` only when

* spatial overlap ``|q.R ∩ n.R| ≥ cR = τR·|q.R|``, and
* textual overlap ``Σ_{t ∈ q.T ∩ n.T} w(t) ≥ cT = τT·Σ_{t∈q.T} w(t)``,

both necessary conditions for any answer below ``n``.  Leaf objects
reaching the bottom are verified exactly.

The method is complete but — as Section 2.3 argues and Figures 16–17
show — its hierarchical bounds are loose: high-level nodes cover huge
regions and union nearly the whole vocabulary, so early levels prune
almost nothing while every visited node pays an inverted-file lookup.
The per-node token sets also blow the index up to ``H×`` the data size
(Table 1's 2.37 GB vs 0.34 GB of data).
"""

from __future__ import annotations

from typing import Collection, Dict, FrozenSet, List

from repro.core.method import SearchMethod
from repro.core.objects import Query
from repro.core.stats import SearchStats
from repro.index.storage import IndexSizeReport, rtree_size_bytes
from repro.rtree import Node, RTree
from repro.signatures.query import compile_query


class IRTreeSearch(SearchMethod):
    """IR-tree extended to spatio-textual similarity search.

    Args:
        objects: The corpus.
        weighter: Corpus idf statistics.
        max_entries: Node fan-out (the paper's worked example uses 3).
    """

    name = "irtree"

    def _build(self, *, max_entries: int = 32):
        self.rtree = RTree.bulk_load(
            [(obj.region, obj.oid) for obj in self.corpus], max_entries=max_entries
        )
        # Decorate every node with its subtree token set (the node
        # inverted file).  Keyed by the node itself (identity hash), not
        # by id(node): the mapping then survives a snapshot round trip,
        # where every node is rebuilt at a new address.
        self._node_tokens: Dict[Node, FrozenSet[str]] = {}
        if len(self.rtree):
            self._collect_tokens(self.rtree.root)
        return None, None

    def _collect_tokens(self, node: Node) -> FrozenSet[str]:
        if node.is_leaf:
            tokens = frozenset().union(
                *(self.corpus[entry.oid].tokens for entry in node.entries)
            )
        else:
            tokens = frozenset().union(
                *(self._collect_tokens(entry.child) for entry in node.entries)
            )
        self._node_tokens[node] = tokens
        return tokens

    # ------------------------------------------------------------------
    # Filter step: bounded tree traversal
    # ------------------------------------------------------------------

    def candidates(self, query: Query, stats: SearchStats) -> Collection[int]:
        if not len(self.rtree):
            return []
        query = compile_query(query, self.weighter)
        c_r, c_t, q_region, q_weighted = query.c_r, query.c_t, query.region, query.weighted
        node_tokens = self._node_tokens
        out: List[int] = []
        stack: List[Node] = [self.rtree.root]
        while stack:
            node = stack.pop()
            stats.lists_probed += 1  # one inverted-file consultation per node
            tokens = node_tokens[node]
            if c_t > 0.0:
                overlap_w = sum(w for t, w in q_weighted if t in tokens)
                if overlap_w < c_t:
                    continue
            if node.is_leaf:
                for entry in node.entries:
                    if entry.mbr.intersection_area(q_region) >= c_r:
                        stats.entries_retrieved += 1
                        out.append(entry.oid)  # type: ignore[arg-type]
            else:
                for entry in node.entries:
                    if entry.mbr.intersection_area(q_region) >= c_r:
                        stack.append(entry.child)  # type: ignore[arg-type]
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def index_size(self) -> IndexSizeReport:
        """4 KB per node + the per-node inverted files (token → child)."""
        node_count = 0
        tokens_indexed = 0
        for node in self.rtree.iter_nodes():
            node_count += 1
            tokens_indexed += len(self._node_tokens[node])
        total = rtree_size_bytes(node_count, len(self.rtree), tokens_indexed)
        return IndexSizeReport(
            num_lists=node_count,
            num_postings=tokens_indexed,
            directory_bytes=0,
            posting_bytes=total,
            page_bytes=total,
        )
