"""The verification step (``Sig-Verify``, Figure 3).

Verification computes the *exact* spatial and textual similarities of each
candidate and keeps those meeting both thresholds.  It is the complexity
bottleneck the signature filters exist to shrink (Section 6.3), so the
implementation precomputes per-object token-weight totals once and picks
the spatial check by candidate count: a per-object loop over raw rectangle
arithmetic for small sets, one NumPy mask over coordinate columns from
:data:`VECTOR_MIN_CANDIDATES` up.  Both run the same float64 operations
in the same order, so the choice changes speed and never an answer.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

from repro.core.objects import Query, SpatioTextualObject
from repro.core.stats import SearchStats
from repro.text.weights import TokenWeighter

#: Candidate sets at least this large take the vectorised spatial mask;
#: below it array setup costs more than the per-object loop it replaces.
VECTOR_MIN_CANDIDATES = 32

#: What a pickled verifier holds.  The coordinate columns are derived and
#: rebuilt on demand, so snapshots neither carry nor depend on them.
_PERSISTENT = ("corpus", "weighter", "_token_totals")


class Verifier:
    """Exact threshold checks over candidate oids.

    Args:
        corpus: Objects addressable by oid (``corpus[oid].oid == oid``).
        weighter: Corpus idf statistics.
    """

    __slots__ = _PERSISTENT + ("_columns",)

    def __init__(self, corpus: Sequence[SpatioTextualObject], weighter: TokenWeighter) -> None:
        self.corpus = corpus
        self.weighter = weighter
        self._token_totals = [weighter.total_weight(obj.tokens) for obj in corpus]
        self._columns = None

    def append(self, obj: SpatioTextualObject) -> None:
        """Grow the corpus by one object, answered as oid ``len(corpus)``.

        Only for a verifier built over a list it may extend (the write
        buffer's scan, which would otherwise be rebuilt per insert):
        one token total and, once the columns exist, one row of them —
        the values a fresh verifier over the longer corpus would hold.
        Not safe beside a running :meth:`verify`; the caller holds the
        engine's write lock.
        """
        row = len(self.corpus)
        self.corpus.append(obj)
        self._token_totals.append(self.weighter.total_weight(obj.tokens))
        columns = self._columns
        if columns is None:
            return
        if row == len(columns[0]):
            # Rows past the corpus are spare capacity no oid reaches.
            columns = self._columns = tuple(
                np.concatenate((column, np.empty_like(column))) for column in columns
            )
        x1, y1, x2, y2 = obj.region.as_tuple()
        for column, value in zip(columns, (x1, y1, x2, y2, (x2 - x1) * (y2 - y1))):
            column[row] = value

    def verify(self, query: Query, candidates: Iterable[int], stats: SearchStats | None = None) -> List[int]:
        """oids among ``candidates`` with ``simR ≥ τR`` and ``simT ≥ τT``.

        The spatial check runs first — it is a handful of float ops, while
        the textual check intersects token sets.
        """
        if not hasattr(candidates, "__len__"):
            candidates = list(candidates)
        if len(candidates) >= VECTOR_MIN_CANDIDATES:
            survivors = self._spatial_mask(query, candidates)
        else:
            survivors = self._spatial_loop(query, candidates)
        q_tokens = query.tokens
        q_total = self.weighter.total_weight(q_tokens)
        tau_t = query.tau_t
        weight = self.weighter.weight
        totals = self._token_totals
        corpus = self.corpus
        answers: List[int] = []
        for oid in survivors:
            inter_w = sum(weight(t) for t in corpus[oid].tokens & q_tokens)
            union_w = q_total + totals[oid] - inter_w
            # union_w == 0 means the token sets are indistinguishable to
            # the weighting: simT = 1 ≥ any τT.
            if union_w > 0.0 and inter_w < tau_t * union_w:
                continue
            answers.append(oid)
        if stats is not None:
            stats.results = len(answers)
        return answers

    def _spatial_loop(self, query: Query, candidates: Iterable[int]) -> List[int]:
        """The candidates passing the spatial threshold, one at a time."""
        if hasattr(candidates, "tolist"):
            # Columnar filters hand over integer arrays; convert once so
            # the loop sees plain ints (faster indexing, and answers never
            # leak NumPy scalar types to callers or snapshots).
            candidates = candidates.tolist()
        q_rect = query.region
        q_area = q_rect.area
        tau_r = query.tau_r
        corpus = self.corpus
        survivors: List[int] = []
        for oid in candidates:
            region = corpus[oid].region
            inter = q_rect.intersection_area(region)
            union = q_area + region.area - inter
            if union > 0.0:
                if inter < tau_r * union:
                    continue
            elif q_rect != region and tau_r > 0.0:
                # Two degenerate regions: similar only when identical.
                continue
            survivors.append(oid)
        return survivors

    def _spatial_mask(self, query: Query, candidates) -> List[int]:
        """:meth:`_spatial_loop` as one mask over the candidate array:
        the same float64 operations elementwise, degenerate zero-union
        branch included, so the survivors are identical bit for bit."""
        if isinstance(candidates, np.ndarray):
            # Fancy indexing takes any integer array as-is, so a signature
            # filter's candidate array is never copied or widened.
            oids = candidates
        else:
            oids = np.fromiter(candidates, dtype=np.intp, count=len(candidates))
        columns = self._columns
        if columns is None:
            # Built on first use, never in __init__: most verifiers (one
            # per write-buffer rebuild, per portfolio member) never see a
            # large candidate set.  Racing threads build equal tuples.
            coords = np.array(
                [obj.region.as_tuple() for obj in self.corpus], dtype=np.float64
            ).reshape(-1, 4)
            x1, y1, x2, y2 = np.ascontiguousarray(coords.T)
            columns = self._columns = (x1, y1, x2, y2, (x2 - x1) * (y2 - y1))
        q_rect = query.region
        qx1, qy1, qx2, qy2 = q_rect.as_tuple()
        tau_r = query.tau_r
        x1, y1, x2, y2, areas = (column[oids] for column in columns)
        dx = np.minimum(qx2, x2) - np.maximum(qx1, x1)
        dy = np.minimum(qy2, y2) - np.maximum(qy1, y1)
        inter = dx * dy
        inter[(dx <= 0.0) | (dy <= 0.0)] = 0.0
        union = (q_rect.area + areas) - inter
        mask = inter >= tau_r * union
        degenerate = union <= 0.0
        if degenerate.any():
            if tau_r > 0.0:
                mask[degenerate] = (
                    (x1[degenerate] == qx1) & (y1[degenerate] == qy1)
                    & (x2[degenerate] == qx2) & (y2[degenerate] == qy2)
                )
            else:
                mask[degenerate] = True
        return oids[mask].tolist()

    def verify_pair(self, query: Query, obj: SpatioTextualObject) -> bool:
        """Exact check for one object (convenience for tests/examples)."""
        return bool(self.verify(query, [obj.oid]))

    def __getstate__(self):
        # The shape slotted classes pickle to by default, minus the
        # columns.
        return None, {name: getattr(self, name) for name in _PERSISTENT}

    def __setstate__(self, state) -> None:
        for name, value in state[1].items():
            setattr(self, name, value)
        self._columns = None
