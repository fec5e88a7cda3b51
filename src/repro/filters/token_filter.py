"""``TokenFilter`` — Sig-Filter(+) over textual signatures (Section 3.2).

Figure 4's running example: tokens are the signature elements, weighted by
idf, with threshold ``c_T = τ_T · Σ_{t∈q.T} w(t)``; Section 4.2 notes the
algorithm "can be also applied to textual signatures" with tokens sorted
descending by idf — that is exactly this class.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.objects import Query
from repro.filters.base import FULL_SCAN, Probes, SingleSchemeFilter
from repro.index.storage import IndexSizeReport, measure_index
from repro.signatures.query import compile_query
from repro.signatures.textual import TextualScheme


class TokenFilter(SingleSchemeFilter):
    """Textual signature filtering (``TokenFilter`` in the experiments).

    A token's code is its id in ``token_ids`` (see
    :meth:`~repro.signatures.textual.TextualScheme.corpus_rows`).

    Degenerate queries — those whose derived textual threshold is ≤ 0
    (``τT == 0``, empty token set, or all-zero idf) — fall back to a full
    candidate scan: a token index cannot reach objects that share no token
    with the query, yet such objects may still satisfy a vacuous textual
    predicate.
    """

    name = "token"

    def _build(self):
        self.scheme = TextualScheme(self.weighter)
        self.token_ids, sizes, tokens, bounds = self.scheme.corpus_signatures(self.corpus)
        self._load(sizes, tokens, bounds)
        # The verifier's token CSR and totals come from these columns;
        # its box block it derives, as this build reads no coordinates.
        return None, (self.token_ids, sizes, tokens)

    def encode(self, tokens: Sequence[str]) -> List[int]:
        """Tokens as the index's codes.  Each token outside the
        vocabulary gets a negative code of its own: a directory miss that
        still counts as one probe."""
        ids = self.token_ids
        return [ids.get(token, -1 - i) for i, token in enumerate(tokens)]

    def probes(self, query: Query) -> Probes:
        query = compile_query(query, self.weighter)
        if query.c_t <= 0.0:
            return FULL_SCAN
        return self.encode(query.prefix_tokens()), query.c_t, None

    def index_size(self) -> IndexSizeReport:
        return measure_index(self.index, bounds_per_posting=1, tokens=list(self.token_ids))
