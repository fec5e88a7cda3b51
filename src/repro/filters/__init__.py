"""SEAL's signature-based filter methods (Sections 3–5).

* :class:`~repro.filters.token_filter.TokenFilter` — textual signatures
  (``TokenFilter`` in the experiments).
* :class:`~repro.filters.grid_filter.GridFilter` — grid-based spatial
  signatures with threshold-aware pruning (``GridFilter``).
* :class:`~repro.filters.hybrid_filter.HybridFilter` — hash-based hybrid
  ``(token, cell)`` signatures (``HybridFilter``).
* :class:`~repro.filters.hierarchical_filter.HierarchicalFilter` — the
  full SEAL method with HSS-selected per-token hierarchical grids.

All four are the threshold-aware ``+`` filters (Lemma 2 prefixes over
Lemma 3 bounds); the plain ``Sig-Filter`` of Figure 3 is not built.
"""

from repro.filters.grid_filter import GridFilter
from repro.filters.hierarchical_filter import HierarchicalFilter
from repro.filters.hybrid_filter import HybridFilter
from repro.filters.token_filter import TokenFilter

__all__ = ["GridFilter", "HierarchicalFilter", "HybridFilter", "TokenFilter"]
