"""Per-query dispatch by a threshold rule: ``token``, or ``grid`` when text cannot prune.

Every registry method hands the one shared exact
:class:`~repro.core.verification.Verifier` a candidate *superset*, so
which filter answers a query changes its time, never its answer.
:class:`PlannedSealSearch` builds two filters over one corpus + weighter
and sends each query to one of them by a rule that reads nothing but the
query's thresholds and token set (:func:`rule`):

* a vacuous textual bound — ``τT = 0``, or no query tokens, so
  ``c_T = 0`` — goes to the spatial filter ``grid``: every object passes
  the textual check, and the token filter could only scan;
* every other query goes to the textual filter ``token``.

The rule is O(1): no prefix is derived and no list is read before the
chosen member runs.  It was measured at one scale only — the perf
ledger's N = 10 000 corpus, where ``token`` is the fastest member on
large regions and in the textual-only regime, and ``grid`` on
spatial-only queries (README "Query planning" has the table).  It
replaced a fitted linear cost model over four members whose ``plan()``
cost about half of the ``token`` query it most often picked.  The hybrid
filters (``hash-hybrid``, ``seal``) hand the verifier far fewer
candidates but lose on the clock at this scale; they remain registry
methods, and :class:`Portfolio` still reaches them by name for
comparisons, without the planner building them.

Observability lives in :class:`PlannerMetrics` (per-member selection
counts and filter latency histograms); :func:`collect_planner_metrics`
aggregates every planner inside an engine (facade, segmented) into the
``planner`` block of ``QueryService.metrics_json``.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Collection, Dict, Iterator, Mapping, Sequence, Tuple

from repro.core.method import SearchMethod
from repro.core.objects import Query, SpatioTextualObject
from repro.core.stats import SearchStats
from repro.core.verification import Verifier
from repro.service.metrics import LatencyHistogram
from repro.text.weights import TokenWeighter

#: The rule's members, built with every planner: the textual filter, then
#: the spatial one.
DEFAULT_METHODS: Tuple[str, ...] = ("token", "grid")
TEXTUAL, SPATIAL = DEFAULT_METHODS

#: Filters a :class:`Portfolio` builds only when asked for by name: the
#: rule never dispatches to them.
COMPARISON_METHODS: Tuple[str, ...] = ("hash-hybrid", "seal")

#: Why the rule sends a query to each member (``explain`` reports it).
WHY: Dict[str, str] = {
    SPATIAL: "c_T = 0: every object passes the textual check, so the token "
             "filter could only scan; the grid filter prunes on c_R",
    TEXTUAL: "c_T > 0: the token filter probes only the lists of the "
             "query's Lemma-2 token prefix",
}


def rule(query: Query) -> Tuple[str, str]:
    """``(member, branch)``: where the rule sends ``query``, and which of
    its branches fired."""
    if query.tau_t <= 0.0:
        return SPATIAL, "tau_t = 0"
    if not query.tokens:
        return SPATIAL, "no query tokens"
    return TEXTUAL, "tau_t > 0 and query tokens"


class PlannerMetrics:
    """Thread-safe planner decision counters + per-member latency.

    ``observe`` records which member answered and how long its filter
    step took.  Everything exports as one JSON-serializable dict for the
    service metrics document.
    """

    __slots__ = ("_lock", "selections", "histograms")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.selections: Dict[str, int] = {}
        self.histograms: Dict[str, LatencyHistogram] = {}

    def observe(self, method: str, seconds: float) -> None:
        with self._lock:
            self.selections[method] = self.selections.get(method, 0) + 1
            histogram = self.histograms.get(method)
            if histogram is None:
                histogram = self.histograms[method] = LatencyHistogram()
        histogram.observe(seconds)

    def merge(self, other: "PlannerMetrics") -> None:
        """Fold another planner's decisions into this aggregate."""
        with other._lock:
            selections = dict(other.selections)
            histograms = dict(other.histograms)
        with self._lock:
            for method, count in selections.items():
                self.selections[method] = self.selections.get(method, 0) + count
            own = {
                method: self.histograms.setdefault(method, LatencyHistogram())
                for method in histograms
            }
        for method, histogram in histograms.items():
            own[method].merge(histogram)

    def as_dict(self) -> Dict[str, object]:
        with self._lock:
            selections = dict(self.selections)
            histograms = dict(self.histograms)
        latency: Dict[str, object] = {}
        for method, histogram in sorted(histograms.items()):
            snapshot = histogram.as_dict()
            latency[method] = {
                "count": snapshot["count"],
                "mean_ms": snapshot["mean_ms"],
                "p50_ms": snapshot["p50_ms"],
                "p99_ms": snapshot["p99_ms"],
            }
        return {
            "decisions": sum(selections.values()),
            "selections": dict(sorted(selections.items())),
            "filter_latency_ms": latency,
        }


class Portfolio(Mapping[str, SearchMethod]):
    """A planner's members by registry name, over its corpus, weighter
    and verifier.

    The rule's members (:data:`DEFAULT_METHODS`) are built with the
    portfolio (``members`` hands in ones already built).  The filters of
    :data:`COMPARISON_METHODS` are reachable by name too, each built on
    first access and never persisted: what a caller timing or sizing a
    planned engine against every filter reads (the perf ledger's regret
    probe and its per-member index bytes).  Every member gets the
    planner's knobs that its constructor accepts.
    """

    __slots__ = ("_build_args", "_members", "_lock")

    def __init__(
        self,
        corpus: Sequence[SpatioTextualObject],
        weighter: TokenWeighter,
        verifier: Verifier,
        params: Mapping[str, Any],
        members: Mapping[str, SearchMethod] | None = None,
    ) -> None:
        self._build_args = (corpus, weighter, verifier, params)
        self._lock = threading.Lock()
        members = members or {}
        self._members: Dict[str, SearchMethod] = {
            name: members[name] if name in members else self._build(name)
            for name in DEFAULT_METHODS
        }

    def _build(self, name: str) -> SearchMethod:
        from repro.core.engine import accepted_params, build_method

        corpus, weighter, verifier, params = self._build_args
        member = build_method(corpus, name, weighter, **accepted_params(name, params))
        # Same corpus, same weighter: one verifier (one set of lazily
        # built columns and token CSR) serves every member.  The member's
        # own, replaced before it verified anything, never computed its
        # token totals.
        member.verifier = verifier
        return member

    def __getitem__(self, name: str) -> SearchMethod:
        member = self._members.get(name)
        if member is None:
            if name not in COMPARISON_METHODS:
                raise KeyError(name)
            with self._lock:
                member = self._members.get(name)
                if member is None:
                    member = self._members[name] = self._build(name)
        return member

    def __contains__(self, name: object) -> bool:
        return name in DEFAULT_METHODS or name in COMPARISON_METHODS

    def __iter__(self) -> Iterator[str]:
        return iter(DEFAULT_METHODS + COMPARISON_METHODS)

    def __len__(self) -> int:
        return len(DEFAULT_METHODS) + len(COMPARISON_METHODS)

    def rule_members(self) -> Dict[str, SearchMethod]:
        """The members the rule dispatches to (what a snapshot keeps)."""
        return {name: self._members[name] for name in DEFAULT_METHODS}


class PlannedSealSearch(SearchMethod):
    """Dispatch by :func:`rule` over ``token`` and ``grid``.

    Args:
        objects: The corpus (dense oids).
        weighter: Shared idf statistics (built once if omitted) — every
            member and the verifier use the same instance, which is what
            makes their answers bit-identical.
        **params: Member-constructor knobs (``granularity``, …), each
            handed to the members whose constructors accept it.

    Raises:
        ConfigurationError: On a knob neither member accepts.
    """

    name = "planned"

    def __init__(
        self,
        objects: Sequence[SpatioTextualObject],
        weighter: TokenWeighter | None = None,
        **params,
    ) -> None:
        super().__init__(objects, weighter)
        from repro.core.engine import check_params

        check_params(self.name, params)
        self._params = dict(params)
        self.methods = Portfolio(self.corpus, self.weighter, self.verifier, self._params)
        # The shared verifier's one totals pass, paid with the indexes
        # rather than by the first query.
        self.verifier.token_totals()
        self.metrics = PlannerMetrics()

    def plan(self, query: Query) -> str:
        """The registry name of the member :func:`rule` sends ``query`` to."""
        return rule(query)[0]

    def explain(self, query: Query) -> Dict[str, object]:
        """A JSON-ready account of one query's dispatch: the member, the
        branch of the rule that fired, and why that member."""
        chosen, branch = rule(query)
        return {"chosen": chosen, "branch": branch, "why": WHY[chosen]}

    def candidates(self, query: Query, stats: SearchStats) -> Collection[int]:
        chosen = self.plan(query)
        stats.method = f"{self.name}:{chosen}"
        started = time.perf_counter()
        candidate_oids = self.methods[chosen].candidates(query, stats)
        self.metrics.observe(chosen, time.perf_counter() - started)
        return candidate_oids

    def index_size(self):
        """Summed accounting over the rule's members (the indexes a
        planned engine keeps built)."""
        from repro.index.storage import IndexSizeReport

        members = self.methods.rule_members().values()
        return IndexSizeReport.total(member.index_size() for member in members)

    def snapshot_manifest(self) -> dict:
        """Planner configuration stored in snapshot envelopes, so
        ``seal-repro inspect --json`` can show it without loading the
        engine."""
        return {
            "kind": "planned",
            "methods": list(DEFAULT_METHODS),
            "rule": f"tau_t = 0 or no query tokens -> {SPATIAL}, else {TEXTUAL}",
            "objects": len(self.corpus),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PlannedSealSearch(|O|={len(self.corpus)}, methods={list(DEFAULT_METHODS)})"

    # Metrics hold locks (unpicklable), and a comparison member is built
    # again when asked for: snapshots carry the rule's members and knobs.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["methods"] = self.methods.rule_members()
        state["metrics"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.methods = Portfolio(
            self.corpus, self.weighter, self.verifier, self._params, state["methods"]
        )
        self.metrics = PlannerMetrics()


# ----------------------------------------------------------------------
# Metrics aggregation over arbitrary engine shapes
# ----------------------------------------------------------------------


def iter_planners(engine: Any) -> Iterator[PlannedSealSearch]:
    """Every planner reachable inside an engine, deduplicated.

    Walks the shapes the service layer serves: a bare method, the
    ``SealSearch`` facade (``.method``) and the segmented engine
    (``segment_methods()``).
    """
    seen: set[int] = set()

    def walk(node: Any) -> Iterator[PlannedSealSearch]:
        if node is None or id(node) in seen:
            return
        seen.add(id(node))
        if isinstance(node, PlannedSealSearch):
            yield node
            return
        inner = getattr(node, "method", None)
        if inner is not None:
            yield from walk(inner)
        segment_methods = getattr(node, "segment_methods", None)
        if callable(segment_methods):
            for method in segment_methods():
                yield from walk(method)

    yield from walk(engine)


def collect_planner_metrics(engine: Any) -> Dict[str, object] | None:
    """The aggregated ``planner`` metrics block for an engine, or None.

    Returns None when the engine contains no planner (the service then
    reports ``"planner": null``), otherwise the merged
    :meth:`PlannerMetrics.as_dict` across every embedded planner —
    e.g. one per live segment of a segmented engine.
    """
    aggregate: PlannerMetrics | None = None
    for planner in iter_planners(engine):
        if aggregate is None:
            aggregate = PlannerMetrics()
        aggregate.merge(planner.metrics)
    return aggregate.as_dict() if aggregate is not None else None
