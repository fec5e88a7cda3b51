"""Adaptive per-query planning: pick the cheapest filter method per query.

The paper's own experiments (Figures 12, 14, 15) show that no single
filter wins everywhere: ``TokenFilter`` dominates when the query carries
rare tokens, ``GridFilter`` when the spatial threshold bites, the hybrids
in between — the regimes cross.  Because every registry method is
*answer-identical* (each produces a candidate superset that the shared
exact :class:`~repro.core.verification.Verifier` reduces to the same
answer set), choosing between them per query is free of correctness
risk: the only thing at stake is time.

:class:`PlannedSealSearch` exploits that.  It keeps several registered
methods built over one corpus + weighter, and per query:

1. extracts **cheap features** — query region area, per-token document
   frequencies (O(1) from the :class:`~repro.text.weights.TokenWeighter`
   / posting directory) and the derived thresholds ``c_T``/``c_R`` —
   what ``explain`` reports and recording mode logs beside a decision;
2. derives the query's **textual prefix** once —
   :meth:`TextualScheme.query_prefix
   <repro.signatures.textual.TextualScheme.query_prefix>`: the one sort
   and the one weight sum a planned query pays, whatever the portfolio —
   and asks each method for its **work estimate** (lists probed, posting
   entries retrieved, candidates verified) through
   :meth:`~repro.core.method.SearchMethod.estimate_work`, handing it
   that prefix.  The planner knows no method's structure, and no
   estimate walks one: ``token`` counts its prefix tokens' lists and
   their directory lengths, ``grid``, ``hash-hybrid`` and ``seal`` price
   (prefix tokens ×) predicted prefix cells × the mean list length from
   O(1) ``cell_span`` arithmetic — O(|prefix|) each — and a method that
   models nothing is priced as a full scan;
3. scores each method with the linear cost model
   ``cost = c0 + c1·lists + c2·entries + c3·candidates`` and dispatches
   to the predicted-cheapest method that can filter the query (a full
   scan runs only when no member can) — handing it the prefix back, so
   the winner sorts nothing again and only its lists are ever walked.

The cost coefficients default to values *fitted* on the perf ledger's
query workloads (:data:`DEFAULT_COEFFICIENTS`) and are refitted for a
deployment the way those were: a *recording mode* appends
``(features, predictions, observed per-method stats + wall time)`` rows
to a JSONL log via the crash-safe atomic-write helpers, and
:func:`fit_coefficients` calibrates each method's coefficients from
those rows (NumPy only; relative error, no negative price).  The
workflow is ``record → fit → serve``.

Observability lives in :class:`PlannerMetrics` (per-method selection
counts, per-method latency histograms, a mispredict counter fed by
recording mode); :func:`collect_planner_metrics` aggregates every
planner hiding inside an engine (facade, segmented) into the
``planner`` block of ``QueryService.metrics_json``.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Collection, Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

from repro.core.errors import ConfigurationError
from repro.core.method import SearchMethod
from repro.core.objects import Query, SpatioTextualObject
from repro.core.stats import SearchStats
from repro.exec.pipeline import execute_query
from repro.io.atomic import atomic_write_text
from repro.service.metrics import LatencyHistogram
from repro.signatures.textual import TextualScheme
from repro.text.weights import TokenWeighter

#: The method portfolio a planner builds by default: one representative
#: per filter family the paper compares (Figures 12/14/15).
DEFAULT_METHODS: Tuple[str, ...] = ("token", "grid", "hash-hybrid", "seal")

#: Cost-model terms, in order: intercept, per probed list, per retrieved
#: posting entry, per verified candidate.
COST_TERMS: Tuple[str, ...] = ("intercept", "lists", "entries", "candidates")

#: Default cost coefficients (seconds) of the default portfolio, fitted,
#: not guessed: ``tests/fixtures/make_planner_coefficients.py`` ran this
#: module's own record → fit workflow over the perf ledger's
#: ``fig16_large`` and ``mixed_regimes`` queries (canonical scale,
#: N = 10 000, seed 7; each member's time the minimum of 5 runs) and
#: printed these rows.  They price what a unit of each member's
#: *predicted* work costs; ``plan --record --fit`` replaces them with a
#: deployment's own.
DEFAULT_COEFFICIENTS: Dict[str, Tuple[float, float, float, float]] = {
    "token": (5.418e-05, 3.904e-06, 3.538e-09, 4.768e-08),
    "grid": (7.46e-05, 0.0, 0.0, 1.034e-06),
    "hash-hybrid": (4.205e-05, 2.818e-06, 0.0, 5.861e-08),
    "seal": (8.212e-05, 1.443e-06, 0.0, 5.4e-08),
}

#: The analytic guess a member without a fitted row above is priced with.
#: Referenced against ``index/iomodel.py``'s charging rules with its page
#: reads collapsed to in-memory latencies: a probed list costs a
#: directory lookup + head slice (~µs), retrieved entries stream through
#: vectorised unions (~tens of ns), and every candidate pays one exact
#: verification (~µs).
UNFITTED_COEFFICIENTS: Tuple[float, float, float, float] = (3e-5, 3e-6, 2e-8, 1.2e-6)

#: Recording mode rewrites the JSONL log (atomically) every this many rows.
RECORD_FLUSH_EVERY = 32


@dataclass(frozen=True, slots=True)
class MethodEstimate:
    """One method's predicted work and cost for one query.

    Attributes:
        method: Registry name of the estimated method.
        lists: Predicted inverted lists probed.
        entries: Predicted posting entries retrieved.
        candidates: Predicted candidate-set size handed to verification.
        cost: Predicted seconds under the method's cost coefficients.
        text: What the method's ``estimate_work`` wants handed to its
            ``candidates`` if it is chosen: the query's textual prefix,
            or ``None`` for nothing.  In-process plumbing, not part of
            the estimate: never exported.
    """

    method: str
    lists: float
    entries: float
    candidates: float
    cost: float
    text: object = field(default=None, repr=False, compare=False)

    def as_dict(self) -> Dict[str, float]:
        return {
            "lists": round(self.lists, 2),
            "entries": round(self.entries, 2),
            "candidates": round(self.candidates, 2),
            "cost_s": self.cost,
        }


class PlannerMetrics:
    """Thread-safe planner decision counters + per-method latency.

    ``observe`` records which method won the dispatch and how long its
    filter step took; ``mispredict`` counts recording-mode queries where
    a *different* method measured cheapest end to end.  Everything
    exports as one JSON-serializable dict for the service metrics
    document.
    """

    __slots__ = ("_lock", "selections", "histograms", "mispredicts")

    def __init__(self) -> None:
        import threading

        self._lock = threading.Lock()
        self.selections: Dict[str, int] = {}
        self.histograms: Dict[str, LatencyHistogram] = {}
        self.mispredicts = 0

    def observe(self, method: str, seconds: float) -> None:
        with self._lock:
            self.selections[method] = self.selections.get(method, 0) + 1
            histogram = self.histograms.get(method)
            if histogram is None:
                histogram = self.histograms[method] = LatencyHistogram()
        histogram.observe(seconds)

    def mispredict(self) -> None:
        with self._lock:
            self.mispredicts += 1

    def merge(self, other: "PlannerMetrics") -> None:
        """Fold another planner's decisions into this aggregate."""
        with other._lock:
            selections = dict(other.selections)
            histograms = dict(other.histograms)
            mispredicts = other.mispredicts
        with self._lock:
            for method, count in selections.items():
                self.selections[method] = self.selections.get(method, 0) + count
            self.mispredicts += mispredicts
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
            mispredicts = self.mispredicts
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
            "mispredicts": mispredicts,
            "filter_latency_ms": latency,
        }


class PlannedSealSearch(SearchMethod):
    """Cost-model-driven dispatch over several answer-identical methods.

    Args:
        objects: The corpus (dense oids).
        weighter: Shared idf statistics (built once if omitted) — every
            sub-method and the verifier use the same instance, which is
            what makes their answers bit-identical.
        methods: Registry names to build and plan over (default
            :data:`DEFAULT_METHODS`).  At least one is required.
        coefficients: Per-method cost coefficients
            ``{name: [c0, c1, c2, c3]}``; missing methods keep their
            :data:`DEFAULT_COEFFICIENTS` row (:data:`UNFITTED_COEFFICIENTS`
            for a method that has none).  Typically produced by
            :func:`fit_coefficients`.
        record_to: JSONL path enabling *recording mode*: every query
            additionally runs each sub-method end to end and appends a
            ``(features, predictions, observations)`` training row —
            expensive by design, for offline calibration only.
        **params: Method-constructor knobs (``granularity``, ``mt``,
            ``num_buckets``, …), distributed to the sub-methods whose
            constructors accept them.

    Raises:
        ConfigurationError: On an empty method list, unknown names, or a
            knob no portfolio member accepts.
    """

    name = "planned"

    def __init__(
        self,
        objects: Sequence[SpatioTextualObject],
        weighter: TokenWeighter | None = None,
        *,
        methods: Sequence[str] | None = None,
        coefficients: Mapping[str, Sequence[float]] | None = None,
        record_to: str | None = None,
        **params,
    ) -> None:
        super().__init__(objects, weighter)
        names = tuple(methods) if methods is not None else DEFAULT_METHODS
        if not names:
            raise ConfigurationError("PlannedSealSearch requires at least one method")
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate method names in {names}")
        if self.name in names:
            raise ConfigurationError("a planner cannot plan over itself")
        from repro.core.engine import accepted_params, build_method, check_params

        check_params(self.name, {"methods": names, **params})
        self.methods: Dict[str, SearchMethod] = {}
        for method_name in names:
            # One flat knob namespace (the CLI's): ``granularity`` reaches
            # the grid and hybrid members but not the token filter.
            member = build_method(
                self.corpus, method_name, self.weighter, **accepted_params(method_name, params)
            )
            # Same corpus, same weighter: one verifier (one set of lazily
            # built columns and token CSR) serves the whole portfolio.
            # The member's own, replaced before it verified anything,
            # never computed its token totals.
            member.verifier = self.verifier
            self.methods[method_name] = member
        # The portfolio's one totals pass, paid with the indexes rather
        # than by the first query.
        self.verifier.token_totals()
        self.coefficients: Dict[str, List[float]] = {
            method_name: list(DEFAULT_COEFFICIENTS.get(method_name, UNFITTED_COEFFICIENTS))
            for method_name in names
        }
        if coefficients:
            self.set_coefficients(coefficients)
        self.metrics = PlannerMetrics()
        self._record_path = record_to
        self._rows: List[dict] = []

    # ------------------------------------------------------------------
    # Planning: features -> per-method work estimates -> cost ranking
    # ------------------------------------------------------------------

    def features(self, query: Query) -> Dict[str, float]:
        """The cheap per-query feature vector the estimators consume.

        Everything here is O(|q.T|): token document frequencies are
        dictionary lookups, and no posting data is touched.
        """
        weighter = self.weighter
        dfs = [weighter.count(token) for token in query.tokens]
        return {
            "area": query.region.area,
            "tau_r": query.tau_r,
            "tau_t": query.tau_t,
            "num_tokens": float(len(query.tokens)),
            "df_min": float(min(dfs)) if dfs else 0.0,
            "df_max": float(max(dfs)) if dfs else 0.0,
            "df_sum": float(sum(dfs)),
            "c_t": query.tau_t * weighter.total_weight(query.tokens),
            "c_r": query.tau_r * query.region.area,
        }

    def plan(self, query: Query) -> List[MethodEstimate]:
        """Every method's estimate, cheapest first — the methods that can
        filter the query, then those that cannot (ties keep registration
        order — the sort is stable)."""
        text = TextualScheme(self.weighter).query_prefix(query)
        estimates = [
            self._estimate(method_name, method, query, text)
            for method_name, method in self.methods.items()
        ]
        # More candidates than entries retrieved is a full scan: the same
        # work whichever member runs it, and what a fit prices worst —
        # verifying an object costs ≈ 4× more under a vacuous spatial
        # threshold than under a vacuous textual one, one coefficient
        # serves both, and it is 0 when no recorded query degenerated.
        # So a full scan never outranks a filter.
        estimates.sort(key=lambda estimate: (estimate.candidates > estimate.entries, estimate.cost))
        return estimates

    def choose(self, query: Query) -> str:
        """The registry name of the method :meth:`plan` ranks first."""
        return self.plan(query)[0].method

    def explain(self, query: Query) -> Dict[str, object]:
        """A JSON-ready account of one query's planning decision."""
        estimates = self.plan(query)
        return {
            "features": self.features(query),
            "chosen": estimates[0].method,
            "estimates": {
                estimate.method: estimate.as_dict() for estimate in estimates
            },
            "ranking": [estimate.method for estimate in estimates],
        }

    def _estimate(
        self, method_name: str, method: SearchMethod, query: Query, text
    ) -> MethodEstimate:
        lists, entries, candidates, text = method.estimate_work(query, text)
        c0, c1, c2, c3 = self.coefficients[method_name]
        cost = c0 + c1 * lists + c2 * entries + c3 * candidates
        return MethodEstimate(method_name, lists, entries, candidates, cost, text)

    # ------------------------------------------------------------------
    # The filter step: dispatch to the predicted-cheapest method
    # ------------------------------------------------------------------

    def candidates(self, query: Query, stats: SearchStats) -> Collection[int]:
        best = self.plan(query)[0]
        chosen = best.method
        delegate = self.methods[chosen]
        stats.method = f"{self.name}:{chosen}"
        started = time.perf_counter()
        if best.text is None:
            candidate_oids = delegate.candidates(query, stats)
        else:
            candidate_oids = delegate.candidates(query, stats, best.text)
        elapsed = time.perf_counter() - started
        self.metrics.observe(chosen, elapsed)
        if self._record_path is not None:
            self._record(query, chosen)
        return candidate_oids

    # ------------------------------------------------------------------
    # Recording mode and calibration (record -> fit -> serve)
    # ------------------------------------------------------------------

    def _record(self, query: Query, chosen: str) -> None:
        """One training row: run *every* method end to end, log the truth.

        Ground truth is each method's full ``execute_query`` wall time
        (filter + exact verification), which is exactly the quantity the
        cost model predicts; the mispredict counter compares the measured
        argmin against the planner's choice.
        """
        predicted: Dict[str, Dict[str, float]] = {}
        for estimate in self.plan(query):
            predicted[estimate.method] = estimate.as_dict()
        observed: Dict[str, Dict[str, float]] = {}
        best_method, best_seconds = chosen, float("inf")
        for method_name, method in self.methods.items():
            result = execute_query(method, query)
            stats = result.stats
            seconds = stats.total_seconds
            observed[method_name] = {
                "lists": stats.lists_probed,
                "entries": stats.entries_retrieved,
                "candidates": stats.candidates,
                "results": stats.results,
                "seconds": seconds,
            }
            if seconds < best_seconds:
                best_method, best_seconds = method_name, seconds
        if best_method != chosen:
            self.metrics.mispredict()
        self._rows.append(
            {
                "features": self.features(query),
                "chosen": chosen,
                "predicted": predicted,
                "observed": observed,
            }
        )
        if len(self._rows) % RECORD_FLUSH_EVERY == 0:
            self.flush_recording()

    def start_recording(self, path: str) -> None:
        """Switch recording mode on for subsequent queries.

        Loaded snapshots come up with recording off (the path is
        deliberately not persisted); the CLI's ``plan --record`` uses
        this to re-arm it.
        """
        self._record_path = path

    def flush_recording(self) -> str | None:
        """Write every recorded row to the JSONL log; returns its path.

        The whole log is rewritten through the fsync-then-rename helper,
        so a crash mid-flush leaves the previous complete log, never a
        torn one.  No-op (returns None) outside recording mode.
        """
        if self._record_path is None:
            return None
        text = "".join(json.dumps(row, sort_keys=True) + "\n" for row in self._rows)
        atomic_write_text(self._record_path, text)
        return self._record_path

    @property
    def recorded_rows(self) -> List[dict]:
        """The training rows accumulated by recording mode (live list view)."""
        return self._rows

    def fit(self, rows: Iterable[dict] | None = None) -> Dict[str, List[float]]:
        """Calibrate this planner's coefficients in place
        (:func:`fit_coefficients`).

        Args:
            rows: Training rows (default: this planner's own recorded
                rows).

        Returns:
            The new per-method coefficients.
        """
        fitted = fit_coefficients(
            self._rows if rows is None else rows, methods=tuple(self.methods)
        )
        self.set_coefficients(fitted)
        return fitted

    def set_coefficients(self, coefficients: Mapping[str, Sequence[float]]) -> None:
        """Install cost coefficients for (a subset of) the methods."""
        for method_name, values in coefficients.items():
            if method_name not in self.coefficients:
                continue
            values = [float(v) for v in values]
            if len(values) != len(COST_TERMS):
                raise ConfigurationError(
                    f"coefficients for {method_name!r} need {len(COST_TERMS)} "
                    f"values {COST_TERMS}, got {len(values)}"
                )
            self.coefficients[method_name] = values

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def index_size(self):
        """Summed accounting over the sub-method indexes (the planner's
        honest space cost: it keeps every portfolio index built)."""
        from repro.index.storage import IndexSizeReport

        reports = [method.index_size() for method in self.methods.values()]
        if not reports or any(report is None for report in reports):
            return None
        return IndexSizeReport(
            num_lists=sum(r.num_lists for r in reports),
            num_postings=sum(r.num_postings for r in reports),
            directory_bytes=sum(r.directory_bytes for r in reports),
            posting_bytes=sum(r.posting_bytes for r in reports),
            page_bytes=sum(r.page_bytes for r in reports),
        )

    def snapshot_manifest(self) -> dict:
        """Planner configuration stored in snapshot envelopes, so
        ``seal-repro inspect --json`` can show the portfolio and the
        live coefficients without loading the engine."""
        return {
            "kind": "planned",
            "methods": list(self.methods),
            "coefficients": {
                method_name: list(values)
                for method_name, values in sorted(self.coefficients.items())
            },
            "objects": len(self.corpus),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PlannedSealSearch(|O|={len(self.corpus)}, "
            f"methods={list(self.methods)})"
        )

    # Metrics hold locks (unpicklable) and recording state is transient;
    # snapshots carry the portfolio + coefficients, and a loaded engine
    # starts with fresh counters and recording off.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["metrics"] = None
        state["_rows"] = []
        state["_record_path"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.metrics = PlannerMetrics()


# ----------------------------------------------------------------------
# Coefficient calibration and persistence
# ----------------------------------------------------------------------


def load_rows(path: str) -> List[dict]:
    """Read a recording-mode JSONL stats log back into training rows."""
    rows: List[dict] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


def fit_coefficients(
    rows: Iterable[dict] | str,
    *,
    methods: Sequence[str] | None = None,
) -> Dict[str, List[float]]:
    """Non-negative, relative-error cost coefficients from recorded rows.

    For each method, solves ``argmin_{c ≥ 0} ||(X c - y) / b||`` with one
    row per recorded query, ``X = [1, lists, entries, candidates]`` taken
    from the *predicted* work estimates (the quantities available at plan
    time), ``y`` the method's *observed* end-to-end seconds — so the
    fitted model directly maps plan-time estimates to wall time — and
    ``b`` the seconds of the fastest method recorded for that query: what
    the query costs when it is routed right.  That is the scale a ranking
    is decided on — a method mispriced by 20 µs changes the plan of a
    50 µs query, not of one whose every method takes milliseconds, whose
    rows would otherwise own the fit — and it does not move with the
    fitted method's own timing, so a method whose cost has a long tail
    is priced near its mean, not under its median.  No coefficient is
    negative: a negative price tells the planner that more work is
    cheaper on every query outside the training mix.

    Args:
        rows: Training rows (from :attr:`PlannedSealSearch.recorded_rows`)
            or a path to a recording-mode JSONL log.
        methods: Restrict/order the fitted methods (default: every method
            appearing in the rows).

    Returns:
        ``{method: [c0, c1, c2, c3]}`` for every method with at least
        one observation; methods without rows are omitted.
    """
    import numpy as np

    if isinstance(rows, str):
        rows = load_rows(rows)
    rows = list(rows)
    # Per method, the weighted system: every row already divided by ``b``.
    per_method: Dict[str, Tuple[List[List[float]], List[float]]] = {}
    for row in rows:
        predicted = row.get("predicted", {})
        observed = row.get("observed", {})
        if not observed:
            continue
        weight = 1.0 / max(min(float(t["seconds"]) for t in observed.values()), 1e-9)
        for method_name, truth in observed.items():
            estimate = predicted.get(method_name)
            if estimate is None:
                continue
            xs, ys = per_method.setdefault(method_name, ([], []))
            work = (1.0, estimate["lists"], estimate["entries"], estimate["candidates"])
            xs.append([weight * term for term in work])
            ys.append(weight * float(truth["seconds"]))
    names = methods if methods is not None else sorted(per_method)
    fitted: Dict[str, List[float]] = {}
    for method_name in names:
        data = per_method.get(method_name)
        if not data or not data[0]:
            continue
        x = np.asarray(data[0], dtype=np.float64)
        y = np.asarray(data[1], dtype=np.float64)
        # The non-negative optimum is the plain least-squares solution
        # over the terms it leaves positive: with four terms, try every
        # subset and keep the best feasible one (the intercept alone
        # always is).
        best, best_residual = None, float("inf")
        for size in range(1, len(COST_TERMS) + 1):
            for terms in itertools.combinations(range(len(COST_TERMS)), size):
                solution, *_ = np.linalg.lstsq(x[:, terms], y, rcond=None)
                error = x[:, terms] @ solution - y
                residual = float(error @ error)
                if (solution >= 0.0).all() and residual < best_residual:
                    best, best_residual = np.zeros(len(COST_TERMS)), residual
                    best[list(terms)] = solution
        fitted[method_name] = [float(v) for v in best]
    return fitted


def save_coefficients(coefficients: Mapping[str, Sequence[float]], path: str) -> None:
    """Persist fitted coefficients as JSON (atomic + fsynced)."""
    document = {
        "schema": 1,
        "terms": list(COST_TERMS),
        "coefficients": {
            method_name: [float(v) for v in values]
            for method_name, values in sorted(coefficients.items())
        },
    }
    atomic_write_text(path, json.dumps(document, indent=2, sort_keys=True) + "\n")


def load_coefficients(path: str) -> Dict[str, List[float]]:
    """Read coefficients saved by :func:`save_coefficients`.

    Raises:
        ConfigurationError: When the file is not one — naming the file
            and the method whose row is not ``len(COST_TERMS)`` finite
            numbers.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            document = json.load(handle)
        except ValueError:
            document = None
    if not isinstance(document, dict) or document.get("schema") != 1:
        raise ConfigurationError(f"{path} is not a planner-coefficients file")
    coefficients = document.get("coefficients")
    if not isinstance(coefficients, dict):
        raise ConfigurationError(f'{path}: "coefficients" must map method names to rows')
    for method_name, values in coefficients.items():
        # ``true`` is an int to Python but no number here; NaN, the
        # infinities and integers past the floats fail the comparison.
        if not (
            isinstance(values, list)
            and len(values) == len(COST_TERMS)
            and all(type(v) in (int, float) and abs(v) <= sys.float_info.max for v in values)
        ):
            raise ConfigurationError(
                f"{path}: coefficients for {method_name!r} must be {len(COST_TERMS)} "
                f"finite numbers {COST_TERMS}, got {values!r}"
            )
    return {
        method_name: [float(v) for v in values] for method_name, values in coefficients.items()
    }


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
