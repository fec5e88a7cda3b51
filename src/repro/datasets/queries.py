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
from dataclasses import dataclass
from typing import Iterator, List, Sequence

import numpy as np

from repro.core.errors import ConfigurationError
from repro.core.objects import Query, SpatioTextualObject
from repro.datasets.spatial_gen import rect_from_center_area
from repro.geometry import Rect
from repro.geometry.rect import mbr_of


@dataclass(frozen=True, slots=True)
class WorkloadSpec:
    """Target statistics of one query workload."""

    name: str
    mean_area: float
    mean_tokens: float


#: The paper's two workloads (Twitter numbers; USA reuses the same shapes).
LARGE_REGION = WorkloadSpec(name="large", mean_area=554.0, mean_tokens=6.97)
SMALL_REGION = WorkloadSpec(name="small", mean_area=0.44, mean_tokens=12.9)

_SPECS = {"large": LARGE_REGION, "small": SMALL_REGION}


class QueryWorkload(Sequence[Query]):
    """An immutable list of queries with workload metadata.

    ``with_thresholds`` re-stamps every query for threshold sweeps, which
    is how the benchmark harness walks the paper's x-axes.
    """

    def __init__(self, queries: Sequence[Query], spec: WorkloadSpec) -> None:
        self._queries = list(queries)
        self.spec = spec

    def __getitem__(self, index):  # type: ignore[override]
        return self._queries[index]

    def __len__(self) -> int:
        return len(self._queries)

    def __iter__(self) -> Iterator[Query]:
        return iter(self._queries)

    def with_thresholds(self, tau_r: float | None = None, tau_t: float | None = None) -> "QueryWorkload":
        return QueryWorkload(
            [q.with_thresholds(tau_r, tau_t) for q in self._queries], self.spec
        )


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
) -> QueryWorkload:
    """Generate a query workload anchored at corpus objects.

    Args:
        objects: The corpus queried against.
        kind: ``"large"`` or ``"small"`` (Section 6.1's two workloads).
        num_queries: Workload size (the paper uses 100).
        seed: Determinism.
        tau_r: Default spatial threshold stamped on the queries.
        tau_t: Default textual threshold stamped on the queries.
        mean_area: Override the spec's mean region area (km²).
        mean_tokens: Override the spec's mean token count.

    Raises:
        ConfigurationError: On unknown kind or empty corpus.
    """
    try:
        spec = _SPECS[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown workload kind {kind!r}; expected 'large' or 'small'"
        ) from None
    if not objects:
        raise ConfigurationError("generate_queries requires a non-empty corpus")
    target_area = mean_area if mean_area is not None else spec.mean_area
    target_tokens = mean_tokens if mean_tokens is not None else spec.mean_tokens

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
    return QueryWorkload(queries, spec)
