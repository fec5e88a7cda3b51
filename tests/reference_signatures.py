"""Per-object signatures, summed and suffix-summed one by one (test-only
oracles).

``src/`` builds every signature of a corpus at once, as flat columns
(:meth:`TextualScheme.corpus_signatures
<repro.signatures.textual.TextualScheme.corpus_signatures>`,
:meth:`GridScheme.from_corpus <repro.signatures.spatial.GridScheme.from_corpus>`).
The per-object API it used to carry lives on here, so the differential
tests compare two independent builds:

* :func:`token_signature` — ``S_T(·)`` of one token set as
  ``(token, w(token))`` pairs in the global (descending-idf) order.
* :func:`suffix_bounds` — the Lemma-3 bounds of one signature, added
  right to left in a Python loop.
* :func:`cells_overlapping` and :func:`cell_ranks` — the cells a region
  touches, and the Section-4.2 global cell order counted with a
  ``Counter`` region by region.
* :func:`min_weight_similarity` — ``Σ_{g∈common} min(w(g|a), w(g|b))``,
  what Lemma 1 bounds: the filters never sum it, they cut the Lemma-3
  bounds that upper-bound it, so the tests of Lemma 1 compute it here.
* :func:`query_prefix`, :func:`spatial_threshold` and :func:`lemma1_band`
  — a query's ``c_T`` with its Lemma-2 prefix, its ``c_R``, and Lemma
  1's area band, each derived on its own, as the schemes and the
  verifier did before :func:`~repro.signatures.query.compile_query`
  derived them all at once.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.objects import Query
from repro.core.similarity import filter_ceiling, filter_threshold
from repro.geometry import Rect
from repro.grid.uniform import UniformGrid
from repro.signatures.prefix import select_prefix
from repro.text.weights import TokenWeighter


def token_signature(weighter: TokenWeighter, tokens: Iterable[str]) -> List[Tuple[str, float]]:
    """``S_T = T`` as ``(token, w(token))`` pairs in global order."""
    return [(t, weighter.weight(t)) for t in weighter.sort_tokens(tokens)]


def suffix_bounds(weights: Sequence[float]) -> List[float]:
    """Suffix sums ``bounds[i] = Σ_{j≥i} weights[j]`` (Lemma 3).

    Examples:
        >>> suffix_bounds([3.0, 2.0, 1.0])
        [6.0, 3.0, 1.0]
    """
    bounds: List[float] = [0.0] * len(weights)
    acc = 0.0
    for i in range(len(weights) - 1, -1, -1):
        acc += weights[i]
        bounds[i] = acc
    return bounds


def cells_overlapping(grid: UniformGrid, rect: Rect) -> List[int]:
    """All cell ids whose half-open extent intersects ``rect``."""
    span = grid.cell_span(rect)
    if span is None:
        return []
    row_lo, row_hi, col_lo, col_hi = span
    g = grid.granularity
    return [
        row * g + col
        for row in range(row_lo, row_hi + 1)
        for col in range(col_lo, col_hi + 1)
    ]


def cell_ranks(grid: UniformGrid, regions: Iterable[Rect]) -> Dict[int, int]:
    """``cell -> rank`` by ascending ``(count(g), cell id)``, inserted in
    rank order."""
    counts: Counter[int] = Counter()
    for region in regions:
        for cell in cells_overlapping(grid, region):
            counts[cell] += 1
    ordered = sorted(counts, key=lambda cell: (counts[cell], cell))
    return {cell: rank for rank, cell in enumerate(ordered)}


def min_weight_similarity(
    sig_a: Iterable[Tuple[int, float]], sig_b: Iterable[Tuple[int, float]]
) -> float:
    """``Σ_{g∈common} min(w(g|a), w(g|b))`` — the grid signature similarity."""
    weights_a = dict(sig_a)
    total = 0.0
    for cell, weight_b in sig_b:
        weight_a = weights_a.get(cell)
        if weight_a is not None:
            total += weight_a if weight_a < weight_b else weight_b
    return total


def query_prefix(weighter: TokenWeighter, query: Query) -> Tuple[List[str], float]:
    """The query's Lemma-2 prefix tokens, in global order, and ``c_T =
    τ_T · Σ_{t∈q.T} w(t)`` through the filter-bound contract."""
    c_t = filter_threshold(query.tau_t, weighter.total_weight(query.tokens))
    ordered = weighter.sort_tokens(query.tokens)
    return ordered[: select_prefix([weighter.weight(t) for t in ordered], c_t)], c_t


def spatial_threshold(query: Query) -> float:
    """``c_R = τ_R · |q.R|`` (Lemma 1) through the filter-bound contract."""
    return filter_threshold(query.tau_r, query.region.area)


def lemma1_band(query: Query) -> Tuple[float, float] | None:
    """``(c_R, |q|/τR)`` loosened by the filter slack when ``|q|`` is
    finite and ``c_R ≥ sys.float_info.min``, else ``None``."""
    q_area = query.region.area
    c_r = filter_threshold(query.tau_r, q_area)
    if sys.float_info.min <= c_r and q_area < math.inf:
        return c_r, filter_ceiling(query.tau_r, q_area)
    return None
