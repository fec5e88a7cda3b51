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
    ) -> Tuple[List[str], np.ndarray, np.ndarray, np.ndarray]:
        """Every object's signature with its Lemma-3 bounds, as arrays.

        The build-side twin of :meth:`object_signature` followed by
        :func:`~repro.signatures.prefix.suffix_bounds`: same order, same
        bounds to the bit, without a sort and a list per object.

        Returns:
            ``(vocabulary, sizes, tokens, bounds)`` — the distinct tokens
            (ids index into this list), ``|o.T|`` per object, and flat
            token ids and threshold bounds, object after object, each
            object's tokens in global order.
        """
        sizes = [len(obj.tokens) for obj in objects]
        occurrences = [token for obj in objects for token in obj.tokens]
        vocabulary = list(dict.fromkeys(occurrences))
        ids: Dict[str, int] = {token: i for i, token in enumerate(vocabulary)}
        flat = list(map(ids.__getitem__, occurrences))
        weighter = self.weighter
        rank = np.empty(len(vocabulary), dtype=np.int64)
        rank[[ids[token] for token in weighter.sort_tokens(vocabulary)]] = np.arange(
            len(vocabulary)
        )
        weight = np.array([weighter.weight(token) for token in vocabulary], dtype=np.float64)
        size_array = np.array(sizes, dtype=np.int64)
        tokens = np.array(flat, dtype=np.int64)
        owner = np.repeat(np.arange(len(sizes)), size_array)
        tokens = tokens[np.lexsort((rank[tokens], owner))]
        return vocabulary, size_array, tokens, segmented_suffix_bounds(weight[tokens], size_array)

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
        """``c_T = τ_T · Σ_{t∈q.T} w(t)`` (Section 3.2)."""
        return query.tau_t * self.weighter.total_weight(query.tokens)
