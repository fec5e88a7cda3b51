"""A query, compiled once (Sections 3.1–3.2, Lemmas 1–2).

:func:`compile_query` is the only code that derives a query's per-query
facts.  An engine compiles each query once; the filters, the baselines
and the verifier each compile what they are handed, a no-op under the
same weighter, and read the record.  A record holds its weighter: it is
never pickled, cached or sent.
"""

from __future__ import annotations

import math
import sys
from typing import FrozenSet, List, NamedTuple, Optional, Tuple

from repro.core.objects import Query
from repro.core.similarity import filter_ceiling, filter_threshold
from repro.geometry import Rect
from repro.signatures.prefix import select_prefix
from repro.text.weights import TokenWeighter


class CompiledQuery(NamedTuple):
    """A query's four fields, then, under ``weighter``: ``weighted``, its
    tokens in global order with their weights; ``total``, their exact
    sum; ``c_t`` and the Lemma-2 ``prefix`` length it cuts; ``c_r``; and
    Lemma 1's ``band``, ``(c_R, |q|/τR)`` loosened by the filter slack,
    if ``|q|`` is finite and ``c_R ≥ sys.float_info.min``.  At ``τT = 0``
    nothing reads the text: ``weighted``, ``total`` and ``prefix`` are
    ``None`` and ``c_t`` is 0.  No consumer changes ``weighted``; it is a
    list because tuples of every query length would pile up in the
    interpreter's tuple free lists (≈ 1 MB of peak RSS on the ledger)."""

    region: Rect
    tokens: FrozenSet[str]
    tau_r: float
    tau_t: float
    weighter: TokenWeighter
    weighted: Optional[List[Tuple[str, float]]]
    total: Optional[float]
    c_t: float
    prefix: Optional[int]
    c_r: float
    band: Optional[Tuple[float, float]]

    def prefix_tokens(self) -> List[str]:
        """The Lemma-2 prefix tokens, in global order."""
        return [token for token, _ in self.weighted[: self.prefix]]


def compile_query(query: Query, weighter: TokenWeighter) -> CompiledQuery:
    """``query`` itself when it was compiled under this very ``weighter``,
    else its four fields compiled afresh under ``weighter``."""
    if type(query) is CompiledQuery and query.weighter is weighter:
        return query
    q_area = query.region.area
    c_r = filter_threshold(query.tau_r, q_area)
    guarded = sys.float_info.min <= c_r and q_area < math.inf
    band = (c_r, filter_ceiling(query.tau_r, q_area)) if guarded else None
    weighted, total, c_t, prefix = None, None, 0.0, None
    if query.tau_t != 0.0:
        ordered = weighter.sort_tokens(query.tokens)
        weights = list(map(weighter.weight, ordered))
        weighted = list(zip(ordered, weights))
        # ``TokenWeighter.total_weight``'s exact sum, of the weights in hand.
        total = math.fsum(weights)
        c_t = filter_threshold(query.tau_t, total)
        prefix = select_prefix(weights, c_t)
    return CompiledQuery(query.region, query.tokens, query.tau_r, query.tau_t, weighter,
                         weighted, total, c_t, prefix, c_r, band)
