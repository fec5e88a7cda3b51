"""``TokenFilter`` — Sig-Filter(+) over textual signatures (Section 3.2).

Figure 4's running example: tokens are the signature elements, weighted by
idf, with threshold ``c_T = τ_T · Σ_{t∈q.T} w(t)``; Section 4.2 notes the
algorithm "can be also applied to textual signatures" with tokens sorted
descending by idf — that is exactly this class with the default
``prefix_pruning=True``.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.objects import Query, SpatioTextualObject
from repro.filters.base import FULL_SCAN, Probes, SingleSchemeFilter
from repro.signatures.textual import TextualScheme
from repro.text.weights import TokenWeighter


class TokenFilter(SingleSchemeFilter):
    """Textual signature filtering (``TokenFilter`` in the experiments).

    Degenerate queries — those whose derived textual threshold is ≤ 0
    (``τT == 0``, empty token set, or all-zero idf) — fall back to a full
    candidate scan: a token index cannot reach objects that share no token
    with the query, yet such objects may still satisfy a vacuous textual
    predicate.
    """

    name = "token"

    def __init__(
        self,
        objects: Sequence[SpatioTextualObject],
        weighter: TokenWeighter | None = None,
        *,
        prefix_pruning: bool = True,
    ) -> None:
        if weighter is None:
            weighter = TokenWeighter(obj.tokens for obj in objects)
        scheme = TextualScheme(weighter)
        super().__init__(objects, scheme, weighter, prefix_pruning=prefix_pruning)

    def probes(self, query: Query) -> Probes:
        if not self.prefix_pruning:
            return super().probes(query)
        tokens, c_t = self.scheme.query_prefix(query)
        if c_t <= 0.0:
            return FULL_SCAN
        return self.encode(tokens), c_t, None
