"""The execution layer: how queries run, separate from what filters compute.

* :mod:`repro.exec.pipeline` — the canonical filter→verify pipeline
  (``execute_query``), its batched twin (``execute_batch``),
  ``run_query``, the one way the layers above reach it through any
  engine shape, and :class:`BatchExecutor`, its batch twin: an engine's
  own ``search_batch``, else ``execute_batch`` where the engine has a
  batched filter step, else ``run_query`` per query — a list of
  per-query results either way.
* :mod:`repro.exec.segments` —
  :class:`~repro.exec.segments.SegmentedSealSearch`: the updatable
  engine (write buffer + immutable segments + tombstones with
  size-tiered merges), searches fanned over segments through the same
  pipeline.
* :mod:`repro.exec.durable` —
  :class:`~repro.exec.durable.DurableSegmentedSealSearch`: the
  segmented engine behind a write-ahead log — mutations logged before
  applied, checkpoint/recovery via ``snapshot + WAL tail``.
* :mod:`repro.exec.planner` —
  :class:`~repro.exec.planner.PlannedSealSearch`: per-query dispatch
  over two answer-identical filters by a threshold rule, each query's
  stats labelled ``planned:<member>``.

Every path preserves exact answer semantics: batching, planning and
segmentation change *throughput*, never results.
"""

from repro.exec.pipeline import BatchExecutor, execute_query, run_query

__all__ = ["BatchExecutor", "execute_query", "run_query"]
