"""The verification step (``Sig-Verify``, Figure 3).

Verification computes the *exact* spatial and textual similarities of each
candidate and keeps those meeting both thresholds.  It is the complexity
bottleneck the signature filters exist to shrink (Section 6.3), so the
implementation keeps per-object token-weight totals and picks each check
by set size: a per-object loop for small sets, one NumPy kernel from
:data:`VECTOR_MIN_CANDIDATES` up — the spatial check over coordinate
columns, the textual check over a CSR of token ids.  Both branches run
the same float64 operations in the same order, so the choice changes
speed and never an answer.

Every textual sum has one order that does not depend on the process's
string hashing: token totals are exact (``math.fsum``, see
:meth:`~repro.text.weights.TokenWeighter.total_weight`), and an
intersection weight is summed sequentially in the weighter's global
token order — on the loop branch by walking the query's sorted tokens,
on the kernel branch because every CSR row is stored in that order and
``np.bincount`` adds in input order.  A primary and its replica, or a
process and its recovered successor, therefore answer a query sitting
exactly on ``τT`` alike.
"""

from __future__ import annotations

import threading
from typing import Iterable, List, Sequence

import numpy as np

from repro.core.objects import Query, SpatioTextualObject
from repro.core.stats import SearchStats
from repro.signatures.textual import TextualScheme
from repro.text.weights import TokenWeighter

#: Candidate (spatial check) and survivor (textual check) sets at least
#: this large take the NumPy kernels; below it array setup costs more
#: than the per-object loop it replaces.
VECTOR_MIN_CANDIDATES = 32

#: What a pickled verifier holds.  The coordinate columns and the token
#: CSR are derived and rebuilt on demand, so snapshots neither carry nor
#: depend on them.
_PERSISTENT = ("corpus", "weighter", "_token_totals")


def _reserve(array: np.ndarray, size: int) -> np.ndarray:
    """``array``, or a copy with room for ``size`` entries — at least twice
    its length, so a run of appends copies O(1) times per entry."""
    if size <= len(array):
        return array
    grown = np.empty(max(size, 2 * len(array)), dtype=array.dtype)
    grown[: len(array)] = array
    return grown


class Verifier:
    """Exact threshold checks over candidate oids.

    Args:
        corpus: Objects addressable by oid (``corpus[oid].oid == oid``).
        weighter: Corpus idf statistics.

    Per-object token totals are computed on first use (and pickled), so a
    verifier that never verifies — a planner member's, replaced by the
    planner's shared one — costs no pass over the corpus.
    """

    __slots__ = _PERSISTENT + ("_columns", "_token_rows", "_scratch")

    def __init__(self, corpus: Sequence[SpatioTextualObject], weighter: TokenWeighter) -> None:
        self.corpus = corpus
        self.weighter = weighter
        self._token_totals = None
        self._reset_derived()

    def _reset_derived(self) -> None:
        """Drop (or start without) everything rebuilt on demand."""
        self._columns = None
        self._token_rows = None
        self._scratch = threading.local()

    def token_totals(self) -> List[float]:
        """``Σ w(t)`` over each object's tokens, by oid — one pass over
        the corpus on the first call."""
        totals = self._token_totals
        if totals is None:
            total_weight = self.weighter.total_weight
            totals = self._token_totals = [total_weight(obj.tokens) for obj in self.corpus]
        return totals

    def append(self, obj: SpatioTextualObject) -> None:
        """Grow the corpus by one object, answered as oid ``len(corpus)``.

        Only for a verifier built over a list it may extend (the write
        buffer's scan, which would otherwise be rebuilt per insert):
        one token total and, once they exist, one row of the coordinate
        columns and of the token CSR — the values a fresh verifier over
        the longer corpus would hold.  Not safe beside a running
        :meth:`verify`; the caller holds the engine's write lock.
        """
        row = len(self.corpus)
        self.corpus.append(obj)
        weighter = self.weighter
        if self._token_totals is not None:
            self._token_totals.append(weighter.total_weight(obj.tokens))
        # Array rows past the corpus are spare capacity no oid reaches.
        columns = self._columns
        if columns is not None:
            columns = self._columns = tuple(_reserve(column, row + 1) for column in columns)
            x1, y1, x2, y2 = obj.region.as_tuple()
            for column, value in zip(columns, (x1, y1, x2, y2, (x2 - x1) * (y2 - y1))):
                column[row] = value
        token_rows = self._token_rows
        if token_rows is not None:
            vocabulary, weights, offsets, ids, totals = token_rows
            ordered = weighter.sort_tokens(obj.tokens)
            unseen = [t for t in ordered if t not in vocabulary]
            weights = _reserve(weights, len(vocabulary) + len(unseen))
            for t in unseen:
                weights[len(vocabulary)] = weighter.weight(t)
                vocabulary[t] = len(vocabulary)
            row_ids = [vocabulary[t] for t in ordered]
            start = int(offsets[row])
            end = start + len(row_ids)
            offsets = _reserve(offsets, row + 2)
            offsets[row + 1] = end
            ids = _reserve(ids, end)
            ids[start:end] = row_ids
            totals = _reserve(totals, row + 1)
            totals[row] = self._token_totals[row]
            self._token_rows = (vocabulary, weights, offsets, ids, totals)

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
        if len(survivors) >= VECTOR_MIN_CANDIDATES:
            answers = self._textual_mask(query, survivors)
        else:
            answers = self._textual_loop(query, survivors)
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

    def _spatial_mask(self, query: Query, candidates) -> np.ndarray:
        """:meth:`_spatial_loop` as one mask over the candidate array:
        the same float64 operations elementwise, degenerate zero-union
        branch included, so the survivors are identical bit for bit."""
        if isinstance(candidates, np.ndarray):
            # ``take`` gathers through any integer array as-is, so a
            # signature filter's int32 candidate array is never copied or
            # widened.
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
        x1, y1, x2, y2, areas = (column.take(oids) for column in columns)
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
        return oids[mask]

    def _textual_loop(self, query: Query, survivors) -> List[int]:
        """The survivors passing the textual threshold, one at a time;
        each intersection weight summed in the global token order."""
        if hasattr(survivors, "tolist"):
            survivors = survivors.tolist()
        if not survivors:
            return []
        weighter = self.weighter
        weight = weighter.weight
        q_tokens = query.tokens
        q_weights = [(t, weight(t)) for t in weighter.sort_tokens(q_tokens)]
        q_total = weighter.total_weight(q_tokens)
        tau_t = query.tau_t
        totals = self.token_totals()
        corpus = self.corpus
        answers: List[int] = []
        for oid in survivors:
            tokens = corpus[oid].tokens
            inter_w = sum(w for t, w in q_weights if t in tokens)
            union_w = q_total + totals[oid] - inter_w
            # union_w == 0 means the token sets are indistinguishable to
            # the weighting: simT = 1 ≥ any τT.
            if union_w > 0.0 and inter_w < tau_t * union_w:
                continue
            answers.append(oid)
        return answers

    def _textual_mask(self, query: Query, oids: np.ndarray) -> List[int]:
        """:meth:`_textual_loop` as one segmented kernel over the token CSR:
        gather the survivors' rows, keep the entries the query holds, and
        add each row's kept weights in row (= global) order with
        ``np.bincount`` — sequential, so bit-identical to the loop's sum
        (``np.add.reduceat`` sums pairwise and would not be)."""
        if not len(oids):
            return []
        token_rows = self._token_rows
        if token_rows is None:
            token_rows = self._token_rows = self._build_token_rows()
        vocabulary, weights, offsets, ids, totals = token_rows
        q_ids = np.array([vocabulary[t] for t in query.tokens if t in vocabulary], dtype=np.intp)
        # ``take``, not ``[]``: it gathers through int32 indices (the
        # CSR's ids, a filter's candidates) without widening them first.
        starts = offsets.take(oids)
        lengths = offsets.take(oids + 1) - starts
        ends = np.cumsum(lengths)
        # Entry j of the gathered run sits j - (its row's run start)
        # entries into that row.
        entries = ids.take(np.arange(ends[-1]) + np.repeat(starts - ends + lengths, lengths))
        # One boolean per local id, kept all-False between calls and
        # reused by the thread: membership costs O(|q.T|) to set up, not
        # an allocation the size of the vocabulary per query.
        scratch = self._scratch
        member = getattr(scratch, "member", None)
        if member is None or len(member) < len(weights):
            member = scratch.member = np.zeros(len(weights), dtype=bool)
        member[q_ids] = True
        try:
            held = np.flatnonzero(member.take(entries))
        finally:
            member[q_ids] = False
        row = np.repeat(np.arange(len(oids)), lengths).take(held)
        inter = np.bincount(row, weights=weights.take(entries.take(held)), minlength=len(oids))
        union = self.weighter.total_weight(query.tokens) + totals.take(oids) - inter
        failed = (union > 0.0) & (inter < query.tau_t * union)
        return oids[~failed].tolist()

    def _build_token_rows(self):
        """``(vocabulary, weights, offsets, ids, totals)``: token → local
        id, one weight per id, row offsets, every object's ids in the
        global order, and the token totals as an array.  Ids are handed
        out in order of first appearance, object after object, each
        object's tokens in global order, exactly as :meth:`append`
        extends them."""
        weighter = self.weighter
        vocabulary, sizes, ids = TextualScheme(weighter).corpus_rows(self.corpus)
        offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        return (
            vocabulary,
            np.array([weighter.weight(t) for t in vocabulary], dtype=np.float64),
            offsets,
            ids.astype(np.int32),
            np.array(self.token_totals(), dtype=np.float64),
        )

    def verify_pair(self, query: Query, obj: SpatioTextualObject) -> bool:
        """Exact check for one object (convenience for tests/examples)."""
        return bool(self.verify(query, [obj.oid]))

    def __getstate__(self):
        # The shape slotted classes pickle to by default, minus the
        # derived structures; the totals are computed now if still lazy.
        self.token_totals()
        return None, {name: getattr(self, name) for name in _PERSISTENT}

    def __setstate__(self, state) -> None:
        for name, value in state[1].items():
            setattr(self, name, value)
        self._reset_derived()
