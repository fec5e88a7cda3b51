"""SEAL core: data model, similarity functions, the method registry.

This package holds the paper's primary contribution — the
filter-and-verification framework (Algorithm 1, ``SealSig``) — plus the
public entry points a downstream user touches:

* :class:`~repro.core.objects.SpatioTextualObject` / :class:`~repro.core.objects.Query`
* :func:`~repro.core.similarity.spatial_similarity` / :func:`~repro.core.similarity.textual_similarity`
* :func:`~repro.core.engine.build_method`, which builds every search method
  (the engine itself, ``SealSearch``, is
  :class:`~repro.exec.segments.SegmentedSealSearch`)
"""

from repro.core.objects import Query, SpatioTextualObject
from repro.core.similarity import (
    spatial_similarity,
    textual_similarity,
)
from repro.core.stats import SearchResult, SearchStats

__all__ = [
    "Query",
    "SpatioTextualObject",
    "SearchResult",
    "SearchStats",
    "spatial_similarity",
    "textual_similarity",
]
