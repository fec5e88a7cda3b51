"""The grid signature similarity, summed pair by pair (test-only oracle).

``Σ_{g∈common} min(w(g|a), w(g|b))`` is what Lemma 1 bounds: the
filters never sum it, they cut the Lemma-3 bounds that upper-bound it,
so the tests of Lemma 1 compute it here.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import Iterable, Tuple


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
