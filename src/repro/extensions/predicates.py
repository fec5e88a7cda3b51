"""Pluggable textual similarity predicates (paper Section 7, "extend the
textual similarity measure to more sophisticated schemes").

Each predicate supplies three things, and the whole SEAL machinery —
signatures, Lemma 2 prefixes, Lemma 3 bounds — works unchanged:

* an element weight ``w_p(t)`` (the prefix framework is agnostic to what
  the weights mean);
* a sound derived threshold ``c_p(q)`` such that
  ``sim_p(q, o) ≥ τ ⟹ Σ_{t∈q.T∩o.T} w_p(t) ≥ c_p(q)``;
* the exact similarity for verification.

Derivations (Q = Σ_{t∈q.T} w(t), O = Σ_{t∈o.T} w(t), C = common weight):

* **Jaccard** ``C/(Q+O−C) ≥ τ`` and ``O ≥ C`` give ``C ≥ τ·Q`` — the
  paper's threshold.
* **Dice** ``2C/(Q+O) ≥ τ`` and ``O ≥ C`` give ``C ≥ τ·Q/(2−τ)``.
* **Cosine** over weighted binary vectors, with squared weights
  ``w²(t)``: ``C₂/√(Q₂·O₂) ≥ τ`` and ``O₂ ≥ C₂`` give ``C₂ ≥ τ²·Q₂``.
"""

from __future__ import annotations

import abc
from typing import List, Sequence, Tuple

from repro.core.method import SearchMethod
from repro.core.objects import Query, SpatioTextualObject
from repro.core.similarity import (
    filter_threshold,
    textual_cosine_similarity,
    textual_dice_similarity,
    textual_similarity,
)
from repro.core.stats import SearchStats
from repro.filters.base import SingleSchemeFilter
from repro.geometry.rect import spatial_jaccard
from repro.text.weights import TokenWeighter


class TextualPredicate(abc.ABC):
    """A textual similarity function with a sound prefix-filter threshold."""

    name: str = "abstract"

    def __init__(self, weighter: TokenWeighter) -> None:
        self.weighter = weighter

    @abc.abstractmethod
    def element_weight(self, token: str) -> float:
        """Weight of a token as a signature element."""

    @abc.abstractmethod
    def threshold(self, query: Query) -> float:
        """Derived overlap threshold ``c_p`` for the query."""

    @abc.abstractmethod
    def similarity(self, a, b) -> float:
        """The exact predicate value (used in verification)."""


class JaccardPredicate(TextualPredicate):
    """The paper's weighted Jaccard (Definition 2)."""

    name = "jaccard"

    def element_weight(self, token: str) -> float:
        return self.weighter.weight(token)

    def threshold(self, query: Query) -> float:
        return filter_threshold(query.tau_t, self.weighter.total_weight(query.tokens))

    def similarity(self, a, b) -> float:
        return textual_similarity(a, b, self.weighter)


class DicePredicate(TextualPredicate):
    """Weighted Dice: ``2C / (Q + O) ≥ τ ⟹ C ≥ τ·Q/(2−τ)``."""

    name = "dice"

    def element_weight(self, token: str) -> float:
        return self.weighter.weight(token)

    def threshold(self, query: Query) -> float:
        if query.tau_t >= 2.0:  # unreachable given tau ∈ [0, 1]
            raise ValueError("dice threshold must be < 2")
        q_total = self.weighter.total_weight(query.tokens)
        return filter_threshold(query.tau_t, q_total / (2.0 - query.tau_t))

    def similarity(self, a, b) -> float:
        return textual_dice_similarity(a, b, self.weighter)


class CosinePredicate(TextualPredicate):
    """Weighted set cosine with squared-weight elements: ``C₂ ≥ τ²·Q₂``."""

    name = "cosine"

    def element_weight(self, token: str) -> float:
        weight = self.weighter.weight(token)
        return weight * weight

    def threshold(self, query: Query) -> float:
        q2 = sum(self.element_weight(t) for t in query.tokens)
        return filter_threshold(query.tau_t * query.tau_t, q2)

    def similarity(self, a, b) -> float:
        return textual_cosine_similarity(a, b, self.weighter)


class _PredicateScheme:
    """A textual signature scheme driven by a predicate's weights."""

    element_kind = "token"

    def __init__(self, predicate: TextualPredicate) -> None:
        self.predicate = predicate
        self.weighter = predicate.weighter

    def _signature(self, tokens) -> List[Tuple[str, float]]:
        ordered = sorted(
            tokens, key=lambda t: (-self.predicate.element_weight(t), t)
        )
        return [(t, self.predicate.element_weight(t)) for t in ordered]

    def object_signature(self, obj: SpatioTextualObject) -> List[Tuple[str, float]]:
        return self._signature(obj.tokens)

    def query_signature(self, query: Query) -> List[Tuple[str, float]]:
        return self._signature(query.tokens)

    def threshold(self, query: Query) -> float:
        return self.predicate.threshold(query)


class _PredicateVerifier:
    """The verification step under a pluggable textual predicate: the
    paper's spatial Jaccard, then the predicate's exact similarity."""

    def __init__(self, corpus: Sequence[SpatioTextualObject], predicate: TextualPredicate) -> None:
        self.corpus = corpus
        self.predicate = predicate

    def verify(self, query: Query, candidates, stats: SearchStats | None = None) -> List[int]:
        if hasattr(candidates, "tolist"):
            # Columnar filters hand over an integer array; convert like
            # Verifier does so answers stay plain ints.
            candidates = candidates.tolist()
        answers = []
        for oid in candidates:
            obj = self.corpus[oid]
            if spatial_jaccard(query.region, obj.region) < query.tau_r:
                continue
            if self.predicate.similarity(query.tokens, obj.tokens) < query.tau_t:
                continue
            answers.append(oid)
        if stats is not None:
            stats.results = len(answers)
        return answers


class PredicateSearch(SingleSchemeFilter):
    """Token filtering + verification under a pluggable textual predicate.

    The spatial predicate stays the paper's spatial Jaccard; only the
    textual side changes.  The filter step is the base class's over the
    predicate's weights and threshold; the verification step swaps the
    shared Jaccard :class:`~repro.core.verification.Verifier` for the
    predicate's exact similarity, so every pipeline that runs this method
    (``search``, ``execute_query``, batches) verifies the same way.

    Examples:
        >>> from repro import Rect, make_corpus, TokenWeighter
        >>> objs = make_corpus([(Rect(0, 0, 2, 2), {"a", "b"})])
        >>> w = TokenWeighter(o.tokens for o in objs)
        >>> engine = PredicateSearch(objs, DicePredicate(w), w)
    """

    name = "predicate-token"

    def __init__(
        self,
        objects: Sequence[SpatioTextualObject],
        predicate: TextualPredicate,
        weighter: TokenWeighter | None = None,
        *,
        prefix_pruning: bool = True,
    ) -> None:
        if weighter is None:
            weighter = TokenWeighter(obj.tokens for obj in objects)
        self.predicate = predicate
        super().__init__(
            objects, _PredicateScheme(predicate), weighter, prefix_pruning=prefix_pruning
        )
        self.verifier = _PredicateVerifier(self.corpus, predicate)
