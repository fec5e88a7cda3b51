"""R-tree substrate.

The paper's spatial-first baseline and the IR-tree comparison method both
sit on a classic R-tree.  Since no spatial library is assumed, this is a
from-scratch implementation: a static tree packed by Sort-Tile-Recursive
(STR) bulk loading, which is what one would use to build an index over a
full, unchanging corpus.
"""

from repro.rtree.tree import Entry, Node, RTree

__all__ = ["Entry", "Node", "RTree"]
