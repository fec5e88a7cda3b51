"""Textual signatures (Section 3.2).

The textual signature of an object is simply its token set, weighted by
idf; the signature similarity is the weighted overlap

    sim(S_T(q), S_T(o)) = Σ_{t ∈ q.T ∩ o.T} w(t)

and the derived threshold is ``c_T = τ_T · Σ_{t ∈ q.T} w(t)``, which is a
valid filter because the textual Jaccard's denominator is at least the
query's own total weight.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.objects import SpatioTextualObject
from repro.signatures.prefix import segmented_suffix_bounds
from repro.text.weights import TokenWeighter


class TextualScheme:
    """Token signatures in descending-idf global order.

    Args:
        weighter: The corpus idf statistics (also defines the global order).
    """

    __slots__ = ("weighter",)

    def __init__(self, weighter: TokenWeighter) -> None:
        self.weighter = weighter

    def corpus_signatures(
        self, objects: Sequence[SpatioTextualObject]
    ) -> Tuple[Dict[str, int], np.ndarray, np.ndarray, np.ndarray]:
        """Every object's signature ``S_T(o) = o.T`` with its Lemma-3
        bounds, as arrays: the postings of ``token`` and the textual half
        of ``hash-hybrid`` and ``seal``.

        Returns:
            ``(ids, sizes, tokens, bounds)`` — :meth:`corpus_rows` and
            each token's threshold bound, in the same flat order.
        """
        ids, sizes, tokens = self.corpus_rows(objects)
        return ids, sizes, tokens, segmented_suffix_bounds(self.weights(ids)[tokens], sizes)

    def weights(self, ids: Dict[str, int]) -> np.ndarray:
        """``w(t)`` of every token of ``ids``, indexed by its id."""
        return np.fromiter(map(self.weighter.weight, ids), np.float64, len(ids))

    def corpus_rows(
        self, objects: Sequence[SpatioTextualObject]
    ) -> Tuple[Dict[str, int], np.ndarray, np.ndarray]:
        """Every object's tokens in global order, as one CSR.

        Returns:
            ``(ids, sizes, tokens)`` — token → id, ids numbering the
            distinct tokens by first appearance in the flat order below
            (so not by how a token set iterates), ``|o.T|`` per object,
            and flat token ids, object after object, each object's in
            global order.
        """
        occurrences = [token for obj in objects for token in obj.tokens]
        by_rank = self.weighter.sort_tokens(set(occurrences))
        rank: Dict[str, int] = {token: i for i, token in enumerate(by_rank)}
        sizes = np.fromiter(
            (len(obj.tokens) for obj in objects), dtype=np.int64, count=len(objects)
        )
        ranks = np.fromiter(
            map(rank.__getitem__, occurrences), dtype=np.int64, count=len(occurrences)
        )
        owner = np.repeat(np.arange(len(sizes)), sizes)
        # One key per (object, token), all distinct: the object, then the
        # token's global rank.
        ranks = ranks[np.argsort(owner * len(by_rank) + ranks)]
        _, first = np.unique(ranks, return_index=True)
        order = np.argsort(first)
        renumber = np.empty(len(order), dtype=np.int64)
        renumber[order] = np.arange(len(order))
        ids = {by_rank[r]: i for i, r in enumerate(order.tolist())}
        return ids, sizes, renumber[ranks]


def object_totals(sizes: np.ndarray, weights: np.ndarray) -> List[float]:
    """Each object's ``Σ w(t)`` from a flat weight column, ``sizes[i]``
    weights of object ``i`` after those of object ``i - 1``: a
    ``math.fsum`` per slice, exact, so equal bit for bit to
    ``TokenWeighter.total_weight`` of the object's tokens."""
    ends = np.cumsum(sizes).tolist()
    return [math.fsum(weights[start:end].tolist()) for start, end in zip([0] + ends[:-1], ends)]
