"""Grid substrate: space partitions used as spatial signatures (Section 4).

SEAL re-purposes classic grid decompositions (Grid File / EXCELL lineage)
as *signature generators*: a region's spatial signature is the set of grid
cells it intersects, weighted by intersection area.

* :class:`~repro.grid.uniform.UniformGrid` — one 2^l × 2^l (or p × p)
  partition of the whole space (Section 4.1).
* :class:`~repro.grid.hierarchy.GridHierarchy` — the level-indexed grid
  tree (Figure 7) behind the hierarchical hybrid signatures (Section 5.2,
  Figure 10).

Section 4.3's cost model for picking a granularity is not built: the
granularity is a build knob, and ``benchmarks/bench_fig13_granularity.py``
sweeps it empirically.
"""

from repro.grid.hierarchy import GridHierarchy, HierCell
from repro.grid.uniform import UniformGrid

__all__ = ["GridHierarchy", "HierCell", "UniformGrid"]
