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

The rule is O(1): it reads the query's own fields, derives nothing and
reads no list; the chosen member and the verifier read the record the
engine compiled once (:func:`~repro.signatures.query.compile_query`).
It was measured at one scale only — the perf ledger's N = 10 000 corpus,
where ``token`` is the fastest member on large regions and in the
textual-only regime, and ``grid`` on spatial-only queries (README "Query
planning" has the table).  It replaced a fitted linear cost model over
four members whose ``plan()`` cost about half of the ``token`` query it
most often picked.  The hybrid filters (``hash-hybrid``, ``seal``) hand
the verifier far fewer candidates but lose on the clock at this scale;
they remain registry methods, and :class:`Portfolio` still reaches them
by name for comparisons, without the planner building them.

A batch is grouped by the rule's member, and each group goes through
that member's batched filter pass (which declines a group too small to
batch); the members share one verifier, so the whole batch is then
verified in one pass.

What ran is recorded once, in each query's ``SearchStats``: the planner
labels it ``planned:<member>``, and the pipeline times its filter step.
A serving ``QueryService`` builds its ``planner`` metrics block from
those labels on the results it executes, and ``seal-repro query
--explain`` prints them, each glossed by :data:`WHY`; the planner itself
keeps only a per-member count (:class:`Selections`).
"""

from __future__ import annotations

import threading
from typing import Any, Collection, Dict, Iterator, List, Mapping, Sequence, Tuple

import numpy as np

from repro.core.method import SearchMethod
from repro.core.objects import Query, SpatioTextualObject
from repro.core.stats import SearchStats
from repro.core.verification import Verifier
from repro.text.weights import TokenWeighter

#: The rule's members, built with every planner: the textual filter, then
#: the spatial one.
DEFAULT_METHODS: Tuple[str, ...] = ("token", "grid")
TEXTUAL, SPATIAL = DEFAULT_METHODS

#: Filters a :class:`Portfolio` builds only when asked for by name: the
#: rule never dispatches to them.
COMPARISON_METHODS: Tuple[str, ...] = ("hash-hybrid", "seal")

#: Why the rule sends a query to each member: ``query --explain`` glosses
#: each ``planned:<member>`` label a result records with it.
WHY: Dict[str, str] = {
    SPATIAL: "c_T = 0: every object passes the textual check, so the token "
             "filter could only scan; the grid filter prunes on c_R",
    TEXTUAL: "c_T > 0: the token filter probes only the lists of the "
             "query's Lemma-2 token prefix",
}


def rule(query: Query) -> str:
    """The member the rule sends ``query`` to: ``grid`` when ``τT = 0``
    or the query has no tokens (both mean ``c_T = 0``), else ``token``."""
    if query.tau_t <= 0.0 or not query.tokens:
        return SPATIAL
    return TEXTUAL


class Selections:
    """How many queries one planner has sent to each member: a count,
    no clock.  A service's ``planner`` metrics block is folded from the
    results it executed, not from this; a direct caller (the perf
    ledger's tracing check) reads it.  A loaded planner starts at zero.
    """

    __slots__ = ("_lock", "_counts")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {}

    def add(self, member: str, queries: int = 1) -> None:
        with self._lock:
            self._counts[member] = self._counts.get(member, 0) + queries

    def as_dict(self) -> Dict[str, int]:
        with self._lock:
            return dict(sorted(self._counts.items()))


def _member(corpus, weighter: TokenWeighter, params: Mapping[str, Any], name: str):
    """``(member, coords, rows)``: filter ``name`` with the planner's
    knobs it accepts, built without a verifier
    (:meth:`~repro.core.method.SearchMethod.unverified`)."""
    from repro.core.engine import METHOD_REGISTRY, accepted_params

    return METHOD_REGISTRY[name].unverified(corpus, weighter, **accepted_params(name, params))


class Portfolio(Mapping[str, SearchMethod]):
    """A planner's members by registry name, over its corpus, weighter
    and verifier.

    The rule's members (:data:`DEFAULT_METHODS`) are handed in built.
    The filters of :data:`COMPARISON_METHODS` are reachable by name too,
    each built on first access and never persisted: what a caller timing
    or sizing a planned engine against every filter reads (the perf
    ledger's regret probe and its per-member index bytes).  Every member
    gets the planner's knobs that its build accepts, and its verifier.
    """

    __slots__ = ("_build_args", "_members", "_lock")

    def __init__(
        self,
        corpus: Sequence[SpatioTextualObject],
        weighter: TokenWeighter,
        verifier: Verifier,
        params: Mapping[str, Any],
        members: Mapping[str, SearchMethod],
    ) -> None:
        self._build_args = (corpus, weighter, verifier, params)
        self._lock = threading.Lock()
        self._members: Dict[str, SearchMethod] = dict(members)

    def _build(self, name: str) -> SearchMethod:
        corpus, weighter, verifier, params = self._build_args
        member = _member(corpus, weighter, params, name)[0]
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
        from repro.core.engine import check_params

        check_params(self.name, params)
        self._bind(objects, weighter)
        self._params = dict(params)
        # One verifier for both members, over the token CSR ``token``
        # read and the coordinate block ``grid`` read: neither member
        # derives the other's column.
        token, _, rows = _member(self.corpus, self.weighter, self._params, TEXTUAL)
        grid, coords, _ = _member(self.corpus, self.weighter, self._params, SPATIAL)
        self.verifier = token.verifier = grid.verifier = Verifier(
            self.corpus, self.weighter, coords, rows
        )
        self.methods = Portfolio(
            self.corpus, self.weighter, self.verifier, self._params,
            {TEXTUAL: token, SPATIAL: grid},
        )
        self.metrics = Selections()

    def plan(self, query: Query) -> str:
        """The registry name of the member :func:`rule` sends ``query`` to."""
        return rule(query)

    def candidates(self, query: Query, stats: SearchStats) -> Collection[int]:
        chosen = self.plan(query)
        stats.method = f"{self.name}:{chosen}"
        self.metrics.add(chosen)
        return self.methods[chosen].candidates(query, stats)

    def candidates_batch(self, queries: Sequence[Query], stats: Sequence[SearchStats]):
        """The filter step of a batch (see
        :func:`~repro.exec.pipeline.execute_batch`): the queries grouped
        by :func:`rule` member, each group through that member's
        ``candidates_batch``, labelled ``planned:<member>`` and counted
        as one selection per query it answers.  Whatever a member
        declines (its ``FULL_SCAN`` queries, or a group too small to
        batch) is declined to the single path, which counts it."""
        groups: Dict[str, List[int]] = {}
        for position, query in enumerate(queries):
            groups.setdefault(rule(query), []).append(position)
        declined: List[int] = []
        pair_queries, pair_oids = [], []
        for chosen, positions in groups.items():
            label = f"{self.name}:{chosen}"
            for position in positions:
                stats[position].method = label
            refused, member_queries, member_oids = self.methods[chosen].candidates_batch(
                [queries[position] for position in positions],
                [stats[position] for position in positions],
            )
            self.metrics.add(chosen, len(positions) - len(refused))
            declined.extend(positions[i] for i in refused)
            pair_queries.append(np.array(positions, dtype=np.int64).take(member_queries))
            pair_oids.append(member_oids)
        if not pair_queries:
            empty = np.empty(0, dtype=np.int64)
            return declined, empty, empty
        if len(pair_queries) == 1:
            # One group's positions ascend, so its pairs are in order.
            return declined, pair_queries[0], pair_oids[0]
        pair_queries = np.concatenate(pair_queries)
        order = pair_queries.argsort(kind="stable")
        return declined, pair_queries.take(order), np.concatenate(pair_oids).take(order)

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

    # The tally holds a lock (unpicklable), and a comparison member is
    # built again when asked for: snapshots carry the rule's members and
    # knobs.
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
        self.metrics = Selections()
