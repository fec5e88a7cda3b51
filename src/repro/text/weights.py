"""Corpus-level idf weighting and the global token order.

Section 2.1 fixes token weights to inverse document frequency,
``w(t) = ln(|O| / count(t, O))``, and Section 4.2 sorts tokens "in
descending order of their idfs" to form the global order used for prefix
selection.  :class:`TokenWeighter` owns both: it is built once from the
object corpus, answers weight queries in O(1), and sorts token sets by
the global order (:meth:`TokenWeighter.sort_tokens`).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, Iterable, Mapping


class TokenWeighter:
    """idf weights and the descending-idf global token order for a corpus.

    Args:
        token_sets: One token set per object in the corpus.

    Attributes:
        num_objects: Corpus size ``|O|``.

    Notes:
        * A token appearing in *every* object has idf ``ln(1) = 0``; it
          contributes nothing to either side of the weighted Jaccard, which
          is the behaviour the paper's formula implies.
        * Query tokens absent from the corpus are given the maximum idf
          ``ln(|O|)`` (i.e., ``count = 1``): an unseen token is maximally
          selective but cannot match any object, so this choice only makes
          the textual *denominator* honest.
        * Ties in idf are broken by the token string so the global order is
          total and deterministic — required for reproducible prefixes.
    """

    def __init__(self, token_sets: Iterable[Iterable[str]]) -> None:
        counts: Counter[str] = Counter()
        num_objects = 0
        for tokens in token_sets:
            num_objects += 1
            counts.update(set(tokens))
        if num_objects == 0:
            raise ValueError("TokenWeighter requires a non-empty corpus")
        self._set_weights(counts, num_objects)

    @classmethod
    def from_counts(cls, counts: Mapping[str, int], num_objects: int) -> "TokenWeighter":
        """Build directly from document-frequency counts (for tests/tools)."""
        if num_objects <= 0:
            raise ValueError("num_objects must be positive")
        bad = [t for t, c in counts.items() if c <= 0 or c > num_objects]
        if bad:
            raise ValueError(f"counts out of range [1, num_objects] for tokens: {bad[:5]}")
        weighter = cls.__new__(cls)
        weighter._set_weights(counts, num_objects)
        return weighter

    def _set_weights(self, counts: Mapping[str, int], num_objects: int) -> None:
        self.num_objects = num_objects
        log_n = math.log(num_objects)
        self._weights: Dict[str, float] = {
            token: log_n - math.log(count) for token, count in counts.items()
        }
        self._unknown_weight = log_n

    # ------------------------------------------------------------------
    # Weights
    # ------------------------------------------------------------------

    def weight(self, token: str) -> float:
        """``w(t) = ln(|O| / count(t, O))``; unseen tokens get ``ln(|O|)``."""
        return self._weights.get(token, self._unknown_weight)

    def total_weight(self, tokens: Iterable[str]) -> float:
        """``Σ_{t∈tokens} w(t)`` — e.g. the textual threshold base for a query.

        Exact (``math.fsum``), so the total does not depend on the order
        ``tokens`` iterates in — a frozenset's varies with
        ``PYTHONHASHSEED``, and a sequential sum with it in the last ulp.
        """
        weight = self._weights
        unknown = self._unknown_weight
        return math.fsum([weight.get(t, unknown) for t in tokens])

    # ------------------------------------------------------------------
    # Global order
    # ------------------------------------------------------------------

    def sort_tokens(self, tokens: Iterable[str]) -> list[str]:
        """Sort tokens by the global order: descending idf, then token.

        Rarest (highest-weight) tokens come first, so prefixes carry the
        most selective elements; an unseen token sorts as a token of
        count 1.
        """
        weight = self._weights
        unknown = self._unknown_weight
        return sorted(tokens, key=lambda t: (-weight.get(t, unknown), t))

    def __contains__(self, token: str) -> bool:
        return token in self._weights

    def __len__(self) -> int:
        return len(self._weights)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TokenWeighter(|O|={self.num_objects}, vocab={len(self._weights)})"
