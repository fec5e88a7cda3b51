"""SEAL: spatio-textual similarity search over regions-of-interest.

A from-scratch reproduction of *SEAL: Spatio-Textual Similarity Search*
(Fan, Li, Zhou, Chen, Hu — PVLDB 5(9), 2012).  Given a corpus of ROIs
(MBR region + token set) and a query ROI with spatial/textual similarity
thresholds, SEAL returns every object similar on *both* axes, using
signature-based filter-and-verification with threshold-aware pruning.

Quickstart::

    from repro import Rect, SealSearch

    engine = SealSearch(
        [(Rect(0, 0, 10, 10), {"coffee", "mocha"}),
         (Rect(2, 2, 12, 12), {"coffee", "starbucks"})],
        method="seal",
    )
    result = engine.search(Rect(1, 1, 11, 11), {"coffee", "mocha"},
                           tau_r=0.3, tau_t=0.3)
    for oid in result:
        print(engine.object(oid))

**The execution layer** (:mod:`repro.exec`) separates *how* queries run
from *what* the filters compute.  ``SearchMethod.search`` is one trip
through the canonical filter→verify pipeline
(:func:`repro.exec.pipeline.execute_query`); the same pipeline drives:

* :class:`~repro.exec.segments.SegmentedSealSearch`, also named
  ``SealSearch`` — the engine: the initial data as one segment indexed
  with the named method, a write buffer sealed into more segments,
  deletes as tombstones, size-tiered merges, queries fanned over the
  segments through the same pipeline (may start empty);
* ``engine.search_batch(queries)`` — a list of per-query results: each
  source answers the whole batch in one
  :class:`~repro.exec.BatchExecutor` trip, and so through the
  pipeline's batched twin (:func:`repro.exec.pipeline.execute_batch`:
  one filter and one verify pass per batch, for ``token``, ``grid`` and
  ``planned``) or, on any other method, query by query.  A workload's
  per-query means come from :func:`repro.bench.measure_workload`;
* :class:`~repro.exec.durable.DurableSegmentedSealSearch` — the
  updatable engine behind a write-ahead log (:mod:`repro.io.wal`):
  mutations logged before applied, ``checkpoint()`` = snapshot + log
  truncation, :func:`repro.exec.durable.recover` replays ``snapshot +
  WAL tail`` into the exact pre-crash engine.

Verification is one step on every path
(:class:`~repro.core.verification.Verifier`), so batched, planned and
segmented results are identical to sequential per-query search — the
test suite pins that for every registry method.

See the README's "Layout" section for the module map and "Tests and
benchmarks" for the reproduction of the paper's evaluation.
"""

from repro.baselines import IRTreeSearch, KeywordFirstSearch, NaiveSearch, SpatialFirstSearch
from repro.core.engine import METHOD_REGISTRY, build_method
from repro.core.errors import ConfigurationError, IndexBuildError, InvalidQueryError, SealError
from repro.core.objects import Corpus, Query, SpatioTextualObject, make_corpus
from repro.core.similarity import spatial_similarity, textual_similarity
from repro.core.stats import SearchResult, SearchStats
from repro.exec.durable import DurableSegmentedSealSearch
from repro.exec.pipeline import BatchExecutor, execute_query
from repro.exec.segments import SealSearch, SegmentedSealSearch
from repro.filters import GridFilter, HierarchicalFilter, HybridFilter, TokenFilter
from repro.geometry import Rect
from repro.service import (
    AdmissionController,
    AdmissionRejected,
    DeadlineExceeded,
    NetworkClient,
    NetworkServer,
    ProcessSupervisor,
    ProtocolError,
    QueryService,
    ResultCache,
    ServiceError,
)
from repro.text import TokenWeighter, tokenize

__version__ = "1.1.0"

__all__ = [
    "METHOD_REGISTRY",
    "AdmissionController",
    "AdmissionRejected",
    "BatchExecutor",
    "ConfigurationError",
    "Corpus",
    "DeadlineExceeded",
    "DurableSegmentedSealSearch",
    "GridFilter",
    "HierarchicalFilter",
    "HybridFilter",
    "IRTreeSearch",
    "IndexBuildError",
    "InvalidQueryError",
    "KeywordFirstSearch",
    "NaiveSearch",
    "NetworkClient",
    "NetworkServer",
    "ProcessSupervisor",
    "ProtocolError",
    "Query",
    "QueryService",
    "Rect",
    "ResultCache",
    "SealError",
    "SealSearch",
    "SearchResult",
    "SearchStats",
    "ServiceError",
    "SegmentedSealSearch",
    "SpatialFirstSearch",
    "SpatioTextualObject",
    "TokenFilter",
    "TokenWeighter",
    "build_method",
    "execute_query",
    "make_corpus",
    "spatial_similarity",
    "textual_similarity",
    "tokenize",
]
