"""Query workloads: large-region and small-region query sets (Section 6.1).

The paper evaluates with two 100-query workloads per dataset:

* **Large-region**: average area 554 km² ("a district"), average 6.97
  tokens.
* **Small-region**: average area 0.44 km² ("a small neighbourhood"),
  average 12.9 tokens.

A query is anchored at a random corpus object — its region is centred on
(a perturbation of) the object's centre and its token set seeded from the
object's tokens — so workloads hit populated space and have non-trivial
answers, exactly like queries issued by real users inside the service
area.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from repro.core.errors import ConfigurationError
from repro.core.objects import Query, SpatioTextualObject
from repro.datasets.spatial_gen import rect_from_center_area
from repro.geometry.rect import mbr_of


#: The paper's two workloads as ``kind -> (mean area in km², mean tokens)``
#: (Twitter numbers; USA reuses the same shapes).
SHAPES = {"large": (554.0, 6.97), "small": (0.44, 12.9)}


def generate_queries(
    objects: Sequence[SpatioTextualObject],
    kind: str = "large",
    num_queries: int = 100,
    seed: int = 13,
    *,
    tau_r: float = 0.4,
    tau_t: float = 0.4,
    mean_area: float | None = None,
    mean_tokens: float | None = None,
) -> List[Query]:
    """Generate a query workload anchored at corpus objects.

    Args:
        objects: The corpus queried against.
        kind: ``"large"`` or ``"small"`` (Section 6.1's two workloads).
        num_queries: Workload size (the paper uses 100).
        seed: Determinism.
        tau_r: Default spatial threshold stamped on the queries.
        tau_t: Default textual threshold stamped on the queries.
        mean_area: Override the kind's mean region area (km²).
        mean_tokens: Override the kind's mean token count.

    Raises:
        ConfigurationError: On unknown kind or empty corpus.
    """
    try:
        shape_area, shape_tokens = SHAPES[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown workload kind {kind!r}; expected 'large' or 'small'"
        ) from None
    if not objects:
        raise ConfigurationError("generate_queries requires a non-empty corpus")
    target_area = mean_area if mean_area is not None else shape_area
    target_tokens = mean_tokens if mean_tokens is not None else shape_tokens

    rng = np.random.default_rng(seed)
    space = mbr_of([obj.region for obj in objects])
    # Lognormal areas around the target mean (sigma 0.6 keeps the spread
    # moderate, as for a hand-built query set).
    sigma = 0.6
    mu = math.log(max(target_area, 1e-12)) - sigma * sigma / 2.0

    all_tokens = sorted({t for obj in objects for t in obj.tokens})
    queries: List[Query] = []
    for _ in range(num_queries):
        anchor = objects[int(rng.integers(0, len(objects)))]
        cx, cy = anchor.region.center
        area = float(rng.lognormal(mu, sigma))
        # Jitter the centre by up to half the query side so queries are
        # near — not on — existing objects.
        side = math.sqrt(area)
        cx += float(rng.normal(0.0, side / 4.0))
        cy += float(rng.normal(0.0, side / 4.0))
        aspect = float(np.exp(rng.normal(0.0, 0.3)))
        region = rect_from_center_area(cx, cy, area, aspect, space)

        count = max(1, int(rng.poisson(target_tokens)))
        # Sorted first: a frozenset iterates in hash order, which moves
        # with PYTHONHASHSEED, and the shuffle would carry that through.
        anchor_tokens = sorted(anchor.tokens)
        rng.shuffle(anchor_tokens)
        take = min(len(anchor_tokens), max(1, int(round(count * 0.7))))
        tokens = set(anchor_tokens[:take])
        while len(tokens) < count:
            tokens.add(all_tokens[int(rng.integers(0, len(all_tokens)))])
        queries.append(Query(region=region, tokens=frozenset(tokens), tau_r=tau_r, tau_t=tau_t))
    return queries
