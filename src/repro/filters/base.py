"""What every signature filter shares: ``probes`` and the one filter step.

The paper's Sig-Filter+ (Figure 6) and Hybrid-Sig-Filter+ (Figure 8) are
one algorithm — derive the thresholds, cut the Lemma-2 prefixes, open
the bound-sorted lists of the prefix elements, union the heads.  The
four signature filters (``token`` and ``grid`` through
:class:`SingleSchemeFilter`, ``hash-hybrid``, ``seal``) differ only in
*which* lists a query opens, and each says so in one method:

``probes(query)`` returns plain data, ``(codes, bound, t_bound)`` — the
int64 element codes of the lists to open (see
:mod:`repro.index.inverted`), in probe order and without repeats; the
primary bound a posting must reach (``c_T`` for tokens,
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
does not, so ``len(codes)`` equals ``lists_probed`` on the former and
bounds it on the latter).  The single-scheme filters also answer a
batch: ``candidates_batch`` hands every query's ``probes`` to one
``union_heads_batch`` (see :func:`repro.exec.pipeline.execute_batch`).

Every ``probes`` reads its thresholds — and the three filters that read
the query's text (``token``, ``hash-hybrid``, ``seal``) its Lemma-2
prefix tokens — from the query compiled once per search
(:func:`~repro.signatures.query.compile_query`).

:class:`SingleSchemeFilter` is ``TokenFilter`` and ``GridFilter`` — the
same Sig-Filter+ (Figure 6) instantiated with different signature
schemes: postings carry Lemma 3 suffix bounds, the query probes only its
Lemma 2 prefix, and each probed list returns only the head whose bound
reaches the threshold.  The paper's plain Sig-Filter (Figure 3), which
opens whole lists and sums ``Σ min(w(s|q), w(s|o))``, is not built.

No filter computes signatures here: each hands ``InvertedIndex.from_postings``
flat columns, every object's signature in global order with its Lemma-3
bounds, from one build per signature axis — ``TextualScheme.corpus_signatures``
for tokens, ``GridScheme.from_corpus`` (one ``UniformGrid.signatures``
array pass over the regions' coordinates) for uniform grid cells.  The
two single-scheme filters load theirs through ``SingleSchemeFilter._load``.
Each build then hands its verifier the columns it read on the way
(``_build`` returns them, see :class:`~repro.core.method.SearchMethod`):
``corpus_signatures``' token CSR from ``token``, ``hash-hybrid`` and
``seal``, and ``GridScheme.from_corpus``'s coordinate block from
``grid`` and ``hash-hybrid`` (``seal`` reads its own); the verifier
derives the other at construction.
"""

from __future__ import annotations

from typing import Collection, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.method import SearchMethod
from repro.core.objects import Query
from repro.core.stats import SearchStats
from repro.exec import pipeline
from repro.index.inverted import InvertedIndex

#: What ``probes`` returns: ``(codes, bound, t_bound)`` …
Probes = Tuple[List[int], float, Optional[float]]

#: … or this, when the scheme cannot filter the query: the filter step is
#: then every oid, and nothing is opened, priced or charged.
FULL_SCAN = object()

def candidates_from_probes(method, query: Query, stats: SearchStats) -> Collection[int]:
    """``candidates`` of every signature filter: ``probes`` → the probe loop."""
    probes = method.probes(query)
    if probes is FULL_SCAN:
        return method.all_oids()
    return method.index.union_heads(*probes, stats)


class SingleSchemeFilter(SearchMethod):
    """Sig-Filter+ over one signature scheme: the bulk load and the
    single-bound filter step, one query or a batch.  A subclass hands
    :meth:`_load` its scheme's corpus columns and supplies ``probes``."""

    def _load(self, sizes: np.ndarray, codes: np.ndarray, bounds: np.ndarray) -> None:
        """Build ``index`` from every object's signature, object after
        object: ``sizes[i]`` codes of oid ``i`` in global order, each with
        its Lemma-3 bound."""
        self.index = InvertedIndex.from_postings(
            codes, np.repeat(np.arange(len(sizes)), sizes), bounds
        )

    candidates = candidates_from_probes

    def candidates_batch(self, queries: Sequence[Query], stats: Sequence[SearchStats]):
        """The filter step of a batch (see
        :func:`~repro.exec.pipeline.execute_batch`): every query's
        ``probes`` through one :meth:`InvertedIndex.union_heads_batch
        <repro.index.inverted.InvertedIndex.union_heads_batch>`.  A
        :data:`FULL_SCAN` query is declined to the single path — and so
        is the whole batch when fewer than
        :data:`~repro.exec.pipeline.BATCH_MIN_QUERIES` of its queries have
        probes."""
        declined: List[int] = []
        batched: List[int] = []
        probes = []
        for position, query in enumerate(queries):
            probe = self.probes(query)
            if probe is FULL_SCAN:
                declined.append(position)
            else:
                batched.append(position)
                probes.append(probe)
        if len(batched) < pipeline.BATCH_MIN_QUERIES:
            empty = np.empty(0, dtype=np.int64)
            return list(range(len(queries))), empty, empty
        pair_queries, pair_oids = self.index.union_heads_batch(
            probes, [stats[position] for position in batched]
        )
        return declined, np.array(batched, dtype=np.int64).take(pair_queries), pair_oids
