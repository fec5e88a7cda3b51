"""Signature schemes and threshold-aware prefix filtering (Sections 3–5).

A *signature scheme* maps an object (or query) to an ordered list of
``(element, weight)`` pairs such that ``sim(q, o) ≥ τ`` implies the
weighted overlap of the signatures reaches a derived threshold ``c``.
Four schemes realise the paper's designs:

* :class:`~repro.signatures.textual.TextualScheme` — tokens weighted by
  idf (Section 3.2).
* :class:`~repro.signatures.spatial.GridScheme` — uniform grid cells
  weighted by intersection area (Section 4.1).
* hash-based hybrid ``(token, cell)`` pairs (Section 5.1) — handled by
  :class:`repro.filters.hybrid_filter.HybridFilter`.
* hierarchical hybrid per-token grids (Section 5.2) — selected by
  :func:`~repro.signatures.hierarchical.select_frontiers`
  (HSS-Greedy) as flat frontier columns, which
  :class:`repro.filters.hierarchical_filter.HierarchicalFilter` orders
  and posts in one overlap pass per token.

:mod:`~repro.signatures.prefix` implements Lemma 2 (query prefix
selection) and Lemma 3 (per-posting threshold bounds); both are shared by
every scheme.  A build reads the whole corpus at once:
``TextualScheme.corpus_signatures`` and ``GridScheme.from_corpus`` return
every object's signature and bounds as flat columns.
"""

from repro.signatures.prefix import segmented_suffix_bounds, select_prefix
from repro.signatures.spatial import GridScheme
from repro.signatures.textual import TextualScheme

__all__ = ["GridScheme", "TextualScheme", "segmented_suffix_bounds", "select_prefix"]
