"""The common search-method interface (Algorithm 1, ``SealSig``).

Every search strategy in the library — the four SEAL signature filters and
the four baselines — is a :class:`SearchMethod`: it owns its index, turns
a query into a candidate oid collection (*filter step*), and delegates the
*verification step* to the shared :class:`~repro.core.verification.Verifier`.
``search`` delegates the wiring of the two steps to the execution
pipeline (:func:`repro.exec.pipeline.execute_query`), so batches and the
segment fan-out drive any method through the exact same path.

A subclass builds its index in ``_build``, which returns the columns it
read for the verifier (see :class:`~repro.core.verification.Verifier`).
"""

from __future__ import annotations

import abc
from typing import Collection, Sequence

from repro.core.objects import Corpus, Query, SpatioTextualObject
from repro.core.stats import SearchResult, SearchStats
from repro.core.verification import Verifier
from repro.exec.pipeline import execute_query
from repro.index.storage import IndexSizeReport
from repro.signatures.query import compile_query
from repro.text.weights import TokenWeighter


class SearchMethod(abc.ABC):
    """Filter-and-verification search over a fixed corpus.

    Args:
        objects: The corpus; oids must be dense and in order (as produced
            by :func:`repro.core.objects.make_corpus`).
        weighter: Corpus idf statistics; built from the corpus when omitted
            so that ad-hoc use stays one-liner simple.
        **knobs: The keyword-only parameters of the subclass's ``_build``.
    """

    #: Registry name; subclasses override.
    name: str = "abstract"

    def __init__(
        self,
        objects: Sequence[SpatioTextualObject],
        weighter: TokenWeighter | None = None,
        **knobs,
    ) -> None:
        self._bind(objects, weighter)
        self.verifier = Verifier(self.corpus, self.weighter, *self._build(**knobs))

    @classmethod
    def unverified(cls, objects: Sequence[SpatioTextualObject], weighter: TokenWeighter, **knobs):
        """``(method, coords, rows)``: the method built without a
        verifier, and the columns its build returned (see
        :meth:`_build`).  The caller sets ``verifier``."""
        method = cls.__new__(cls)
        method._bind(objects, weighter)
        return (method, *method._build(**knobs))

    def _bind(self, objects: Sequence[SpatioTextualObject], weighter: TokenWeighter | None) -> None:
        self.corpus = objects if isinstance(objects, Corpus) else Corpus(objects)
        if weighter is None:
            weighter = TokenWeighter(obj.tokens for obj in self.corpus)
        self.weighter = weighter

    def _build(self):
        """Build the index from the keyword-only knobs (what
        :func:`~repro.core.engine.accepted_params` reads); return the
        verifier's ``(coords, rows)``, each ``None`` unless read."""
        return None, None

    # ------------------------------------------------------------------
    # The two framework steps
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def candidates(self, query: Query, stats: SearchStats) -> Collection[int]:
        """Filter step: a superset of the answer oids (Step 1, Sec. 3.1)."""

    def search(self, query: Query) -> SearchResult:
        """Filter, then verify; answers come back sorted by oid.

        One query, compiled once, through the canonical execution pipeline.
        """
        return execute_query(self, compile_query(query, self.weighter))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def index_size(self) -> IndexSizeReport | None:
        """Byte-accounting report for Table 1; None when not applicable."""
        return None

    def all_oids(self) -> range:
        """Every oid — the degenerate candidate set for vacuous thresholds."""
        return range(len(self.corpus))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(|O|={len(self.corpus)})"
