"""Corpus-level idf weighting and the global token order.

Section 2.1 fixes token weights to inverse document frequency,
``w(t) = ln(|O| / count(t, O))``, and Section 4.2 sorts tokens "in
descending order of their idfs" to form the global order used for prefix
selection.  :class:`TokenWeighter` owns both: it is built once from the
object corpus and then answers weight and rank queries in O(1).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, Iterable, Mapping, Sequence


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
        self.num_objects = num_objects
        self._counts: Dict[str, int] = dict(counts)
        log_n = math.log(num_objects)
        self._weights: Dict[str, float] = {
            token: log_n - math.log(count) for token, count in counts.items()
        }
        # Global order: descending idf == ascending document count; token
        # string breaks ties.  Rarest (highest-weight) tokens come first so
        # prefixes carry the most selective elements.
        ordered = sorted(self._weights, key=lambda t: (-self._weights[t], t))
        self._ranks: Dict[str, int] = {token: i for i, token in enumerate(ordered)}
        self._unknown_weight = log_n

    @classmethod
    def from_counts(cls, counts: Mapping[str, int], num_objects: int) -> "TokenWeighter":
        """Build directly from document-frequency counts (for tests/tools)."""
        weighter = cls.__new__(cls)
        if num_objects <= 0:
            raise ValueError("num_objects must be positive")
        bad = [t for t, c in counts.items() if c <= 0 or c > num_objects]
        if bad:
            raise ValueError(f"counts out of range [1, num_objects] for tokens: {bad[:5]}")
        weighter.num_objects = num_objects
        weighter._counts = dict(counts)
        log_n = math.log(num_objects)
        weighter._weights = {t: log_n - math.log(c) for t, c in counts.items()}
        ordered = sorted(weighter._weights, key=lambda t: (-weighter._weights[t], t))
        weighter._ranks = {token: i for i, token in enumerate(ordered)}
        weighter._unknown_weight = log_n
        return weighter

    # ------------------------------------------------------------------
    # Weights
    # ------------------------------------------------------------------

    def weight(self, token: str) -> float:
        """``w(t) = ln(|O| / count(t, O))``; unseen tokens get ``ln(|O|)``."""
        return self._weights.get(token, self._unknown_weight)

    def count(self, token: str) -> int:
        """Document frequency ``count(t, O)`` (0 for unseen tokens)."""
        return self._counts.get(token, 0)

    def total_weight(self, tokens: Iterable[str]) -> float:
        """``Σ_{t∈tokens} w(t)`` — e.g. the textual threshold base for a query.

        Exact (``math.fsum``), so the total does not depend on the order
        ``tokens`` iterates in — a frozenset's varies with
        ``PYTHONHASHSEED``, and a sequential sum with it in the last ulp.
        """
        weight = self._weights
        unknown = self._unknown_weight
        return math.fsum([weight.get(t, unknown) for t in tokens])

    def vocabulary(self) -> Sequence[str]:
        """All corpus tokens in global (descending-idf) order."""
        return sorted(self._ranks, key=self._ranks.__getitem__)

    # ------------------------------------------------------------------
    # Global order
    # ------------------------------------------------------------------

    def rank(self, token: str) -> int:
        """Position of ``token`` in the global order (unseen tokens rank first).

        Unseen tokens have maximal idf, hence belong before every corpus
        token; we map them all to rank -1.  They never appear in any
        object's signature, so sharing a rank is harmless.
        """
        return self._ranks.get(token, -1)

    def sort_tokens(self, tokens: Iterable[str]) -> list[str]:
        """Sort tokens by the global order (descending idf, then token)."""
        weight = self._weights
        unknown = self._unknown_weight
        return sorted(tokens, key=lambda t: (-weight.get(t, unknown), t))

    def __contains__(self, token: str) -> bool:
        return token in self._weights

    def __len__(self) -> int:
        return len(self._weights)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TokenWeighter(|O|={self.num_objects}, vocab={len(self._weights)})"
