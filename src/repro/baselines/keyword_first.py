"""The keyword-first baseline (Section 2.3).

Plain inverted lists map each token to the objects containing it.  A
query gathers every object sharing at least one query token, computes the
*exact* textual similarity, keeps those with ``simT ≥ τT``, and leaves the
spatial check to verification.  Its weakness — the reason SEAL exists —
is that popular query tokens drag in enormous candidate sets that spatial
information could have pruned.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Collection, List

import numpy as np

from repro.core.method import SearchMethod
from repro.core.objects import Query
from repro.core.similarity import filter_threshold
from repro.core.stats import SearchStats
from repro.index.inverted import InvertedIndex
from repro.index.storage import IndexSizeReport, measure_index
from repro.signatures.query import compile_query
from repro.signatures.textual import TextualScheme


class KeywordFirstSearch(SearchMethod):
    """Textual-predicate-first baseline (``Keyword`` in Figures 16–17).

    A token's list is keyed by its id in ``token_ids`` (see
    :meth:`~repro.signatures.textual.TextualScheme.corpus_rows`).
    """

    name = "keyword-first"

    def _build(self):
        # Plain postings: no bounds, bound slot reused as 0.0.
        self.token_ids, sizes, tokens = TextualScheme(self.weighter).corpus_rows(self.corpus)
        self.index = InvertedIndex.from_postings(
            tokens, np.repeat(np.arange(len(sizes)), sizes), np.zeros(len(tokens))
        )
        return None, (self.token_ids, sizes, tokens)

    def candidates(self, query: Query, stats: SearchStats) -> Collection[int]:
        query = compile_query(query, self.weighter)
        if query.tau_t <= 0.0 or query.total <= 0.0:
            # Vacuous textual predicate — or a zero-weight query token
            # set, which scores simT = 1 against any object whose tokens
            # also weigh nothing, without sharing a single token.  Lists
            # cannot reach those objects; scan instead.
            return self.all_oids()
        token_ids = self.token_ids
        overlap: defaultdict[int, float] = defaultdict(float)
        for token, w in query.weighted:
            # Every posting's bound is 0.0, so the head is the whole
            # list — and empty exactly when the token has none.
            head = self.index.probe(token_ids.get(token, -1), 0.0).tolist()
            if not head:
                continue
            stats.lists_probed += 1
            stats.entries_retrieved += len(head)
            for oid in head:
                overlap[oid] += w
        q_total, tau_t = query.total, query.tau_t
        totals = self.verifier.token_totals()
        out: List[int] = []
        for oid, inter_w in overlap.items():
            union_w = q_total + totals[oid] - inter_w
            # The exact check, summed in the verifier's global order and
            # held to the filter-bound contract.
            if union_w <= 0.0 or inter_w >= filter_threshold(tau_t, union_w):
                out.append(oid)
        return out

    def index_size(self) -> IndexSizeReport:
        return measure_index(self.index, bounds_per_posting=0, tokens=list(self.token_ids))
