"""Textual signatures (Section 3.2).

The textual signature of an object is simply its token set, weighted by
idf; the signature similarity is the weighted overlap

    sim(S_T(q), S_T(o)) = Σ_{t ∈ q.T ∩ o.T} w(t)

and the derived threshold is ``c_T = τ_T · Σ_{t ∈ q.T} w(t)``, which is a
valid filter because the textual Jaccard's denominator is at least the
query's own total weight.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.objects import Query, SpatioTextualObject
from repro.core.similarity import filter_threshold
from repro.signatures.prefix import segmented_suffix_bounds, select_prefix
from repro.text.weights import TokenWeighter


class TextualScheme:
    """Token signatures in descending-idf global order.

    Args:
        weighter: The corpus idf statistics (also defines the global order).
    """

    __slots__ = ("weighter",)

    element_kind = "token"

    def __init__(self, weighter: TokenWeighter) -> None:
        self.weighter = weighter

    def object_signature(self, obj: SpatioTextualObject) -> List[Tuple[str, float]]:
        """``S_T(o) = o.T`` as (token, w(token)) pairs in global order."""
        return self._signature(obj.tokens)

    def query_signature(self, query: Query) -> List[Tuple[str, float]]:
        """``S_T(q) = q.T`` — same construction as for objects."""
        return self._signature(query.tokens)

    def corpus_signatures(
        self, objects: Sequence[SpatioTextualObject]
    ) -> Tuple[Dict[str, int], np.ndarray, np.ndarray, np.ndarray]:
        """Every object's signature with its Lemma-3 bounds, as arrays.

        The build-side twin of :meth:`object_signature` followed by
        :func:`~repro.signatures.prefix.suffix_bounds`: same order, same
        bounds to the bit, without a sort and a list per object.

        Returns:
            ``(ids, sizes, tokens, bounds)`` — :meth:`corpus_rows` and
            each token's threshold bound, in the same flat order.
        """
        ids, sizes, tokens = self.corpus_rows(objects)
        weighter = self.weighter
        weight = np.array([weighter.weight(token) for token in ids], dtype=np.float64)
        return ids, sizes, tokens, segmented_suffix_bounds(weight[tokens], sizes)

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

    def query_prefix(self, query: Query) -> Tuple[List[str], float]:
        """The query's Lemma-2 prefix tokens, in global order, and ``c_T``.

        Everything a textual filter needs of a query's text, from the one
        sort and the one weight sum it costs: what
        ``prefix_elements(query_signature(query), threshold(query))`` and
        ``threshold(query)`` give, to the bit.  The planner derives it
        once per query for all of its members.
        """
        weighter = self.weighter
        c_t = self.threshold(query)
        ordered = weighter.sort_tokens(query.tokens)
        return ordered[: select_prefix([weighter.weight(t) for t in ordered], c_t)], c_t

    def _signature(self, tokens) -> List[Tuple[str, float]]:
        weighter = self.weighter
        ordered = weighter.sort_tokens(tokens)
        return [(t, weighter.weight(t)) for t in ordered]

    def threshold(self, query: Query) -> float:
        """``c_T = τ_T · Σ_{t∈q.T} w(t)`` (Section 3.2), through the
        filter-bound contract (:func:`~repro.core.similarity.filter_threshold`)."""
        return filter_threshold(query.tau_t, self.weighter.total_weight(query.tokens))
