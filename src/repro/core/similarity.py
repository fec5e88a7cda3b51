"""Spatial and textual similarity functions (Definitions 1 and 2).

These are the *exact* similarities used in verification; the signature
similarities used in filtering live with their signature schemes.  The
module also exposes Dice/Cosine textual variants for the extension hooks
the paper's conclusion calls out.
"""

from __future__ import annotations

import math
from typing import AbstractSet, Iterable

from repro.geometry import Rect
from repro.geometry.rect import spatial_dice as _spatial_dice
from repro.geometry.rect import spatial_jaccard as _spatial_jaccard
from repro.text.weights import TokenWeighter


#: Relative downward slack of every filter bound (see :func:`filter_threshold`):
#: 2⁻³⁰ ≈ 9.3e-10, exactly representable, so ``1 - FILTER_SLACK`` is too.
FILTER_SLACK = 2.0 ** -30


def filter_threshold(tau: float, total: float) -> float:
    """The filter-side bound ``c = τ · total``, a few ulps looser.

    Every filter prunes with a bound of this shape — ``c_T = τT·Q`` over
    the query's token weight, ``c_R = τR·|q.R|`` over its area (Lemma 1),
    a baseline's node overlap, a join's per-object bound — and the one
    :class:`~repro.core.verification.Verifier` then tests ``I ≥ τ·U`` with
    ``U = (Q + T) − I`` computed in floats.  Mathematically ``U ≥ Q``, so
    ``I ≥ τ·Q`` is implied; in floats ``(Q + T) − I`` can round *below*
    ``Q``, and a filter cutting at exactly ``τ·Q`` then drops an object
    the verifier (and the naive scan) accepts.  Every filter bound goes
    through here instead, and the verifier is left as it is.

    Why ``τ·total·(1 − 2⁻³⁰)`` is never above what the verifier accepts,
    with ``u = 2⁻⁵³`` and ``γₙ = n·u / (1 − n·u)``: a float sum of ``n``
    non-negative terms, in any order, is within ``γₙ`` of its exact value
    (``math.fsum`` totals within ``u``), and a product or difference of
    exact coordinates within ``u`` per operation.  Exactly, ``I ≤ min(Q,
    T)``, so ``Q + T ≤ 2U``; the rounding of the verifier's ``U`` is then
    at most ``(5u + γₖ)·U`` for ``k`` common elements, and acceptance
    implies an exact ``I ≥ τ·U·(1 − 6u − 2γₖ) ≥ τ·Q·(1 − 6u − 2γₖ)``.
    Every sum a filter holds against ``c`` — a Lemma-3 suffix bound, a
    Lemma-2 prefix suffix, a node's overlap — adds at most ``n``
    non-negative terms whose exact total is at least ``I`` (spatial cells
    tile the space, so their clipped areas add up to the overlap), so it
    is at least ``I·(1 − γₙ)``.  The returned bound is at most ``τ·Q·(1 +
    u)³·(1 − 2⁻³⁰)``, which stays below that for every signature of up to
    2²⁰ elements by a margin of thousands of ulps.  The spatial side has
    the same shape with areas for weights (three roundings per area), and
    so do the division forms ``I / U ≥ τ`` of the join and the predicates.

    The cost is at most a boundary object more per query: one whose
    bound lies within ``2⁻³⁰`` (relative) below ``τ·total``, which the
    verifier then rejects as before.

    The verifier applies Lemma 1 per candidate too, before its exact
    spatial check, under a guard: ``|q|`` finite and ``c_R =
    filter_threshold(τR, |q|) ≥ sys.float_info.min`` (so ``τR > 0`` and
    the query's box is finite).  Neither reject drops what the exact
    test keeps:

    * **Box.** A candidate whose closed box misses the query's has
      ``inter = 0`` on both branches.  Under the guard ``union ≥ |q|``,
      so ``0 < τR·union`` is true and the exact test drops it.  A NaN
      area (``0·inf``) takes the degenerate branch, which keeps only a
      region identical to the query — and the query is finite.
    * **Band.** Under the guard the degenerate branch keeps nothing.
      Acceptance implies ``|o| ≥ I ≥ τR·U`` and ``|q| ≥ I`` (``U ≥
      |q|``, ``U ≥ |o|``), so ``c_R ≤ |o| ≤ |q|/τR`` within the rounding
      bounded above: the lower edge is this bound, the upper one
      :func:`filter_ceiling`.
    * **NaN.** Every reject is a true comparison, so a NaN area falls
      through to the exact test; a query outside the guard runs the
      exact test alone.

    Args:
        tau: A similarity threshold in ``[0, 1]``.
        total: The query-side total it scales (a token weight, an area).
    """
    return tau * total * (1.0 - FILTER_SLACK)


def filter_ceiling(tau: float, total: float) -> float:
    """The mirror of :func:`filter_threshold`: ``total / τ``, a few ulps
    looser upward — the largest candidate size (an area) that can still
    reach ``simR ≥ τ`` against a query of size ``total``, since
    ``τ·|o| ≤ τ·U ≤ I ≤ |q|``.  Same slack, same argument.

    Args:
        tau: A similarity threshold in ``(0, 1]``.
        total: The query-side total (an area).
    """
    return total / tau * (1.0 + FILTER_SLACK)


def spatial_similarity(a: Rect, b: Rect) -> float:
    """Spatial Jaccard ``|a∩b| / |a∪b|`` (Definition 1)."""
    return _spatial_jaccard(a, b)


def spatial_dice_similarity(a: Rect, b: Rect) -> float:
    """Spatial Dice ``2|a∩b| / (|a|+|b|)`` (extension mentioned in Sec. 2.1)."""
    return _spatial_dice(a, b)


def textual_similarity(
    a: AbstractSet[str],
    b: AbstractSet[str],
    weighter: TokenWeighter,
) -> float:
    """Weighted Jaccard ``Σ_{t∈a∩b} w(t) / Σ_{t∈a∪b} w(t)`` (Definition 2).

    Empty-vs-empty is defined as 1.0 (identical token sets), empty vs
    non-empty as 0.0.  A corpus-wide token has weight 0 and is neutral.
    """
    if not a and not b:
        return 1.0
    inter = a & b
    inter_weight = weighter.total_weight(inter)
    union_weight = (
        weighter.total_weight(a) + weighter.total_weight(b) - inter_weight
    )
    if union_weight <= 0.0:
        # All tokens have zero idf (every token is in every object): the
        # sets are indistinguishable to the weighting, call them identical.
        return 1.0
    return inter_weight / union_weight


def textual_dice_similarity(
    a: AbstractSet[str],
    b: AbstractSet[str],
    weighter: TokenWeighter,
) -> float:
    """Weighted Dice ``2Σ_{a∩b} w / (Σ_a w + Σ_b w)``."""
    if not a and not b:
        return 1.0
    inter_weight = weighter.total_weight(a & b)
    denom = weighter.total_weight(a) + weighter.total_weight(b)
    if denom <= 0.0:
        return 1.0
    return 2.0 * inter_weight / denom


def textual_cosine_similarity(
    a: AbstractSet[str],
    b: AbstractSet[str],
    weighter: TokenWeighter,
) -> float:
    """Weighted Cosine ``Σ_{a∩b} w² / sqrt(Σ_a w² · Σ_b w²)``.

    Treats each set as a binary vector scaled by token weights, the common
    set-cosine used by the string-similarity literature the paper cites.
    """
    if not a and not b:
        return 1.0
    inter = a & b
    num = sum(weighter.weight(t) ** 2 for t in inter)
    denom_a = sum(weighter.weight(t) ** 2 for t in a)
    denom_b = sum(weighter.weight(t) ** 2 for t in b)
    denom = math.sqrt(denom_a * denom_b)
    if denom <= 0.0:
        return 1.0 if not (a ^ b) else 0.0
    return num / denom


def token_overlap_weight(
    a: AbstractSet[str],
    b: Iterable[str],
    weighter: TokenWeighter,
) -> float:
    """``Σ_{t ∈ a∩b} w(t)`` — the textual *signature similarity* (Sec. 3.2)."""
    return sum(weighter.weight(t) for t in b if t in a)
