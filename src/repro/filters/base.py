"""What every signature filter shares: ``probes`` and the one filter step.

The paper's Sig-Filter+ (Figure 6) and Hybrid-Sig-Filter+ (Figure 8) are
one algorithm — derive the thresholds, cut the Lemma-2 prefixes, open
the bound-sorted lists of the prefix elements, union the heads.  The
four signature filters (``token`` and ``grid`` through
:class:`SingleSchemeFilter`, ``hash-hybrid``, ``seal``) differ only in
*which* lists a query opens, and each says so in one method:

``probes(query)`` returns plain data, ``(elements, bound, t_bound)`` —
the directory keys of the lists to open, in probe order and without
repeats; the primary bound a posting must reach (``c_T`` for tokens,
``c_R`` for everything spatial); and the textual bound of a dual-bound
index, else ``None`` — or :data:`FULL_SCAN` when the scheme cannot
filter the query (a vacuous derived threshold, under which objects
sharing *no* signature element with the query may still be answers).
It is a pure function of the query and the built index: no statistics,
no state left on the filter (engines are shared between threads).

Everything downstream reads that one description.  ``candidates`` is
:func:`candidates_from_probes` — ``probes`` handed to the one probe loop,
:meth:`InvertedIndex.union_heads <repro.index.inverted.InvertedIndex.
union_heads>`, which owns the accounting rule (a
single-bound probe of a missing list counts as a probe, a dual-bound one
does not, so ``len(elements)`` equals ``lists_probed`` on the former and
bounds it on the latter); the I/O model charges the pages of the same
heads (:mod:`repro.index.iomodel`).

The three filters that read the query's text (``token``, ``hash-hybrid``,
``seal``) derive it with :meth:`TextualScheme.query_prefix
<repro.signatures.textual.TextualScheme.query_prefix>` — the Lemma-2
prefix tokens and ``c_T`` from one sort and one weight sum.

:class:`SingleSchemeFilter` is ``TokenFilter`` and ``GridFilter`` — the
same filter instantiated with different signature schemes — in two
variants:

* **Sig-Filter+** (default, Figure 6): postings carry Lemma 3 suffix
  bounds, the query probes only its Lemma 2 prefix, and each probed list
  returns only the head whose bound reaches the threshold.
* **Sig-Filter** (``prefix_pruning=False``, Figure 3): postings carry raw
  element weights, the query opens its *whole* signature's lists in full
  (which is what its ``probes`` says: every element, bound ``-inf``),
  and the filter accumulates the exact signature similarity
  ``Σ min(w(s|q), w(s|o))``, keeping objects that reach the threshold.
  Kept for the pruning ablation — it shows precisely what the `+` buys.
"""

from __future__ import annotations

from typing import Collection, Dict, Hashable, List, Optional, Protocol, Sequence, Tuple

from repro.core.method import SearchMethod
from repro.core.objects import Query, SpatioTextualObject
from repro.core.stats import SearchStats
from repro.index.inverted import InvertedIndex
from repro.index.storage import IndexSizeReport, measure_index
from repro.signatures.prefix import prefix_elements, suffix_bounds
from repro.text.weights import TokenWeighter

#: What ``probes`` returns: ``(elements, bound, t_bound)`` …
Probes = Tuple[List[Hashable], float, Optional[float]]

#: … or this, when the scheme cannot filter the query: the filter step is
#: then every oid, and nothing is opened, priced or charged.
FULL_SCAN = object()

def candidates_from_probes(method, query: Query, stats: SearchStats) -> Collection[int]:
    """``candidates`` of every signature filter: ``probes`` → the probe loop."""
    probes = method.probes(query)
    if probes is FULL_SCAN:
        return method.all_oids()
    return method.index.union_heads(*probes, stats)


class SignatureScheme(Protocol):
    """What a signature scheme must provide (see :mod:`repro.signatures`)."""

    element_kind: str

    def object_signature(self, obj: SpatioTextualObject) -> List[Tuple[object, float]]: ...

    def query_signature(self, query: Query) -> List[Tuple[object, float]]: ...

    def threshold(self, query: Query) -> float: ...


class SingleSchemeFilter(SearchMethod):
    """Sig-Filter(+) over one signature scheme.

    Args:
        objects: The corpus.
        scheme: Signature scheme (textual or grid).
        weighter: Corpus idf statistics (built if omitted).
        prefix_pruning: True → Sig-Filter+ (threshold-aware); False →
            plain Sig-Filter.
    """

    def __init__(
        self,
        objects: Sequence[SpatioTextualObject],
        scheme: SignatureScheme,
        weighter: TokenWeighter | None = None,
        *,
        prefix_pruning: bool = True,
    ) -> None:
        super().__init__(objects, weighter)
        self.scheme = scheme
        self.prefix_pruning = prefix_pruning
        # Every posting as flat columns, object after object in signature
        # order; the directory numbers elements as they first appear.
        directory: Dict[Hashable, int] = {}
        rows: List[int] = []
        oids: List[int] = []
        bounds: List[float] = []
        for obj in self.corpus:
            signature = scheme.object_signature(obj)
            weights = [w for _, w in signature]
            rows.extend(directory.setdefault(element, len(directory)) for element, _ in signature)
            oids.extend([obj.oid] * len(signature))
            bounds.extend(suffix_bounds(weights) if prefix_pruning else weights)
        self.index = InvertedIndex.from_postings(list(directory), rows, oids, bounds)

    # ------------------------------------------------------------------
    # Filter step
    # ------------------------------------------------------------------

    def _is_degenerate(self, query: Query) -> bool:
        """True when the scheme cannot see some legitimate answers.

        Subclasses refine this; the safe default is a vacuous (≤ 0)
        derived threshold, under which objects sharing *no* signature
        element with the query may still satisfy the similarity predicate.
        """
        return self.scheme.threshold(query) <= 0.0

    def probes(self, query: Query) -> Probes:
        if self._is_degenerate(query):
            return FULL_SCAN
        signature = self.scheme.query_signature(query)
        if not self.prefix_pruning:
            return [element for element, _ in signature], float("-inf"), None
        threshold = self.scheme.threshold(query)
        return [element for element, _ in prefix_elements(signature, threshold)], threshold, None

    def candidates(self, query: Query, stats: SearchStats) -> Collection[int]:
        if self.prefix_pruning:
            return candidates_from_probes(self, query, stats)
        if self._is_degenerate(query):
            return self.all_oids()
        return self._candidates_plain(
            self.scheme.query_signature(query), self.scheme.threshold(query), stats
        )

    def _candidates_plain(
        self,
        signature: Sequence[Tuple[object, float]],
        threshold: float,
        stats: SearchStats,
    ) -> Collection[int]:
        """Sig-Filter: accumulate exact signature similarity over all lists.

        ``Σ min(w(s|q), w(s|o))`` accumulates in float64, lists visited
        in signature order with one entry per oid per list, as array
        kernels over the CSR columns.
        """
        index = self.index
        scratch = index.begin_union()
        acc = scratch.accumulator(len(self.corpus))
        for element, query_weight in signature:
            entries = index.accumulate(acc, element, query_weight, scratch)
            if entries is None:
                continue
            stats.lists_probed += 1
            stats.entries_retrieved += entries
            stats.entries_matched += entries
        touched = scratch.result()
        out = touched[acc[touched] >= threshold]
        acc[touched] = 0.0  # keep the reusable accumulator zeroed
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def index_size(self) -> IndexSizeReport:
        return measure_index(self.index, bounds_per_posting=1)
