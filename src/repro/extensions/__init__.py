"""Beyond-paper extensions.

The paper's conclusion lists extension directions ("how to extend the
textual similarity measure to more sophisticated schemes", multiple
active regions per user as future work); the applications in its
introduction imply ranked retrieval.  This package implements them on
top of the core library:

* :mod:`~repro.extensions.predicates` — Dice and Cosine textual
  predicates with sound prefix-filter thresholds.
* :mod:`~repro.extensions.topk` — top-k spatio-textual similarity search
  by threshold descent over any filter method.
* :mod:`~repro.extensions.multiregion` — multi-region ROIs (clustered
  user activity) with exact union-of-rectangles similarity.
"""

from repro.extensions.join import brute_force_join, similarity_join
from repro.extensions.predicates import (
    CosinePredicate,
    DicePredicate,
    JaccardPredicate,
    PredicateSearch,
)
from repro.extensions.topk import TopKResult, top_k_search
from repro.extensions.multiregion import (
    MultiRegionObject,
    cluster_points_to_regions,
    multi_region_search,
    multi_region_spatial_similarity,
    union_area,
)

__all__ = [
    "CosinePredicate",
    "DicePredicate",
    "JaccardPredicate",
    "MultiRegionObject",
    "PredicateSearch",
    "TopKResult",
    "brute_force_join",
    "cluster_points_to_regions",
    "multi_region_search",
    "multi_region_spatial_similarity",
    "similarity_join",
    "top_k_search",
    "union_area",
]
