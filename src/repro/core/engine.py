"""One constructor for every search method.

:func:`build_method` is the registry-backed factory the benchmarks, the
planner and every segment build drive.  The engine a downstream
application uses — ``SealSearch``, built once from ``(region, tokens)``
pairs and queried with regions, token iterables and thresholds — is
:class:`~repro.exec.segments.SegmentedSealSearch`, which builds its
indexes here.
"""

from __future__ import annotations

import functools
import inspect
import math
from typing import Any, Callable, Dict, Mapping, Sequence

from repro.baselines.irtree import IRTreeSearch
from repro.baselines.keyword_first import KeywordFirstSearch
from repro.baselines.naive import NaiveSearch
from repro.baselines.spatial_first import SpatialFirstSearch
from repro.core.errors import ConfigurationError
from repro.core.method import SearchMethod
from repro.core.objects import SpatioTextualObject
from repro.filters.grid_filter import GridFilter
from repro.filters.hierarchical_filter import HierarchicalFilter
from repro.filters.hybrid_filter import HybridFilter
from repro.filters.token_filter import TokenFilter
from repro.geometry import Rect
from repro.grid.uniform import region_block
from repro.text.weights import TokenWeighter

def _build_planned(objects, weighter=None, **params) -> SearchMethod:
    """Registry wrapper for the query planner.

    Deferred import: the planner lives in :mod:`repro.exec.planner` and
    itself calls :func:`build_method` to build its members, so a
    top-level import here would cycle.
    """
    from repro.exec.planner import PlannedSealSearch

    return PlannedSealSearch(objects, weighter, **params)


#: method name -> constructor; every constructor accepts
#: (objects, weighter=None, **params).
METHOD_REGISTRY: Dict[str, Callable[..., SearchMethod]] = {
    "naive": NaiveSearch,
    "keyword-first": KeywordFirstSearch,
    "spatial-first": SpatialFirstSearch,
    "irtree": IRTreeSearch,
    "token": TokenFilter,
    "grid": GridFilter,
    "hash-hybrid": HybridFilter,
    "seal": HierarchicalFilter,
    "planned": _build_planned,
}


def _constructor(name: str) -> Callable[..., SearchMethod]:
    try:
        return METHOD_REGISTRY[name]
    except KeyError:
        valid = ", ".join(sorted(METHOD_REGISTRY))
        raise ConfigurationError(f"unknown method {name!r}; valid methods: {valid}") from None


def accepted_params(name: str, params: Mapping[str, Any]) -> Dict[str, Any]:
    """The subset of ``params`` that method ``name`` accepts.

    A method accepts its build's keyword-only parameters (the
    ``_build`` of its class, see :class:`~repro.core.method.SearchMethod`).
    ``planned`` exposes one flat knob namespace and hands each of its
    members its share, so it accepts whatever one of them accepts.

    Raises:
        ConfigurationError: For an unknown method name.
    """
    ctor = _constructor(name)
    if ctor is _build_planned:
        from repro.exec.planner import DEFAULT_METHODS

        accepted = set().union(*(accepted_params(member, params) for member in DEFAULT_METHODS))
    else:
        accepted = {
            knob
            for knob, parameter in inspect.signature(ctor._build).parameters.items()
            if parameter.kind is inspect.Parameter.KEYWORD_ONLY
        }
    return {knob: value for knob, value in params.items() if knob in accepted}


def check_params(name: str, params: Mapping[str, Any]) -> None:
    """Refuse knobs that method ``name`` does not accept.

    Everything that builds methods later from knobs it is configured with
    now — the planner's portfolio, the segmented engine's per-seal
    builds, the CLI — asks here first, so a misspelt or stale knob fails
    where the engine is configured, not inside some later index build.

    Raises:
        ConfigurationError: Naming the knob(s) and the method.
    """
    accepted = accepted_params(name, params)
    unknown = ", ".join(repr(knob) for knob in params if knob not in accepted)
    if unknown:
        raise ConfigurationError(f"method {name!r} does not accept {unknown}")


def check_regions(name: str, regions: Sequence[Rect]) -> None:
    """Refuse, with the grid build's own ``ConfigurationError``, a region
    with an infinite edge if method ``name`` partitions a space (takes a
    ``space`` knob: ``grid``, ``hash-hybrid``, ``seal``, ``planned``)."""
    if _partitions_space(name) and not all(
        math.isfinite(edge) for region in regions for edge in region.as_tuple()
    ):
        region_block(regions)  # raises, naming the first such region


@functools.cache
def _partitions_space(name: str) -> bool:
    return bool(accepted_params(name, {"space": None}))


def build_method(
    objects: Sequence[SpatioTextualObject],
    name: str,
    weighter: TokenWeighter | None = None,
    **params,
) -> SearchMethod:
    """Construct a search method by registry name.

    Args:
        objects: The corpus (dense oids).
        name: One of ``naive``, ``keyword-first``, ``spatial-first``,
            ``irtree``, ``token``, ``grid``, ``hash-hybrid``, ``seal``,
            ``planned`` (threshold-rule dispatch over ``token`` and ``grid``).
        weighter: Shared idf statistics; building several methods over the
            same corpus with one weighter keeps similarity semantics (and
            work) shared.
        **params: Method-specific knobs (``granularity``, ``mt``,
            ``num_buckets``, ``max_entries``, …), all keyword-only on the
            builds, so any registry entry builds with one uniform
            call — the planner and the segmented engine rely on that.

    Raises:
        ConfigurationError: For unknown method names, and for knobs the
            method does not accept (:func:`check_params`).
    """
    check_params(name, params)
    return _constructor(name)(objects, weighter, **params)
