"""The verification step (``Sig-Verify``, Figure 3).

Verification computes the *exact* spatial and textual similarities of each
candidate and keeps those meeting both thresholds.  It is the complexity
bottleneck the signature filters exist to shrink (Section 6.3), so the
implementation keeps per-object token-weight totals and picks each check
by set size: a per-object loop for small sets, one NumPy kernel from
:data:`VECTOR_MIN_CANDIDATES` up — the spatial check over one block of
box rows, the textual check over a CSR of token ids.  Both branches run
the same float64 operations in the same order, so the choice changes
speed and never an answer.

A verifier holds its box block, token CSR and totals from construction
on, built from the columns an index build read (or derived once, then),
and a snapshot carries them: nothing is built on the read path.

What the checks read of a query comes compiled
(:func:`~repro.signatures.query.compile_query`).  Before the exact
spatial check, a query with a Lemma-1 ``band`` drops the candidates the
lemma rules out: a box that misses the query's, and — on the vector
branch — an area outside ``[c_R, |q|/τR]``.  Neither drops an object the
exact check keeps, so it too changes speed, never an answer.

Every textual sum has one order that does not depend on the process's
string hashing: token totals are exact (``math.fsum``, see
:meth:`~repro.text.weights.TokenWeighter.total_weight`), and an
intersection weight is summed sequentially in the weighter's global
token order — on the loop branch by walking the compiled query's tokens,
on the kernel branch because every CSR row is stored in that order and
``np.bincount`` adds in input order.  A primary and its replica, or a
process and its recovered successor, therefore answer a query sitting
exactly on ``τT`` alike.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

from repro.core.objects import Query, SpatioTextualObject
from repro.core.stats import SearchStats
from repro.grid.uniform import coordinate_block
from repro.index.inverted import pack_arrays, unpack_arrays
from repro.signatures.query import CompiledQuery, compile_query
from repro.signatures.textual import TextualScheme, object_totals
from repro.text.weights import TokenWeighter

#: Candidate sets at least this large take the spatial reject and the
#: NumPy spatial kernel; reject survivors (exact spatial check) and
#: spatial survivors (textual check) at least this large take the NumPy
#: kernels.  Below it array setup costs more than the per-object loop it
#: replaces.
#: Loop → kernel, µs per query, median of 3 runs, at 8/16/21/32/64 of
#: ``grid``'s | ``token``'s candidates (ledger 10k, large, seed 7): textual
#: 10→38 23→31 31→41 52→35 87→40 | 17→46 35→52 30→40 53→34 132→67; spatial
#: 23→29 32→32 47→37 59→29 119→32 | 5→38 9→33 7→23 10→25 26→25.  The
#: textual crossover is 21–32, as it was before queries were compiled.
VECTOR_MIN_CANDIDATES = 32

#: What a pickled verifier holds; the arrays go to the snapshot's
#: sidecar (:func:`~repro.index.inverted.pack_arrays`), so an mmap load
#: maps them.
_PERSISTENT = ("corpus", "weighter", "_token_totals", "_boxes", "_token_rows")


def _reserve(array: np.ndarray, size: int) -> np.ndarray:
    """``array``, or a copy with room for ``size`` entries along its last
    axis — at least twice its length, so a run of appends copies O(1)
    times per entry."""
    length = array.shape[-1]
    if size <= length:
        return array
    grown = np.empty(array.shape[:-1] + (max(size, 2 * length),), dtype=array.dtype)
    grown[..., :length] = array
    return grown


def _oid_array(candidates) -> np.ndarray:
    """``candidates`` as an integer array.  ``take`` gathers through any
    integer array as-is, so a signature filter's int32 candidate array is
    never copied or widened; a ``range`` (the write buffer's scan) becomes
    one without a Python pass."""
    if isinstance(candidates, np.ndarray):
        return candidates
    if isinstance(candidates, range):
        return np.arange(candidates.start, candidates.stop, candidates.step)
    return np.fromiter(candidates, dtype=np.intp, count=len(candidates))


def _box_rows(x1, y1, x2, y2):
    """One object's (or, over arrays, every object's) column of the box
    block: ``x1, y1, −x2, −y2, |o|, −|o|``.  Negation is exact, so every
    upper edge compares as ``>`` against a negated lower bound and the
    kernels read the true coordinates back bit for bit."""
    area = (x2 - x1) * (y2 - y1)
    return (x1, y1, -x2, -y2, area, -area)


class Verifier:
    """Exact threshold checks over candidate oids.

    Args:
        corpus: Objects addressable by oid (``corpus[oid].oid == oid``).
        weighter: Corpus idf statistics.
        coords: The regions' ``(x1, y1, x2, y2)`` block a build read
            (``grid``, ``hash-hybrid``, ``seal``); ``None`` derives it
            here (:func:`~repro.grid.uniform.coordinate_block`, which
            keeps an infinite edge).
        rows: ``(ids, sizes, tokens)`` of :meth:`~repro.signatures.
            textual.TextualScheme.corpus_rows` a build ran (``token``,
            ``hash-hybrid``, ``seal``, ``keyword-first``); ``None`` runs
            it here.

    It holds the box block (rows of :func:`_box_rows`, a column per
    object), the token CSR ``(vocabulary, weights, offsets, ids,
    totals)`` — ``rows``' ids, a weight per id, row offsets, each
    object's ids in global order, the totals — and the exact totals as
    floats (:func:`~repro.signatures.textual.object_totals`).
    """

    __slots__ = _PERSISTENT

    def __init__(self, corpus: Sequence[SpatioTextualObject], weighter: TokenWeighter,
                 coords: np.ndarray | None = None, rows: tuple | None = None) -> None:
        if coords is None:
            coords = coordinate_block([obj.region for obj in corpus])
        if rows is None:
            rows = TextualScheme(weighter).corpus_rows(corpus)
        vocabulary, sizes, ids = rows
        weights = TextualScheme(weighter).weights(vocabulary)
        offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        self.corpus = corpus
        self.weighter = weighter
        self._token_totals = totals = object_totals(sizes, weights[ids])
        self._boxes = np.stack(_box_rows(*coords.T))
        self._token_rows = (vocabulary, weights, offsets, ids.astype(np.int32),
                            np.array(totals, dtype=np.float64))

    def token_totals(self) -> List[float]:
        """``Σ w(t)`` over each object's tokens, by oid."""
        return self._token_totals

    def append(self, obj: SpatioTextualObject) -> None:
        """Grow the corpus by one object, answered as oid ``len(corpus)``.

        Only for a verifier built over a list it may extend (the write
        buffer's scan, which would otherwise be rebuilt per insert): one
        token total, one column of the box block and one row of the
        token CSR — the values a fresh verifier over the longer corpus
        would hold.  Not safe beside a running :meth:`verify`; the
        caller holds the engine's write lock.
        """
        row = len(self.corpus)
        self.corpus.append(obj)
        weighter = self.weighter
        total = weighter.total_weight(obj.tokens)
        self._token_totals.append(total)
        # Array entries past the corpus are spare capacity no oid reaches.
        boxes = self._boxes = _reserve(self._boxes, row + 1)
        boxes[:, row] = _box_rows(*obj.region.as_tuple())
        vocabulary, weights, offsets, ids, totals = self._token_rows
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
        totals[row] = total
        self._token_rows = (vocabulary, weights, offsets, ids, totals)

    def verify(self, query: Query, candidates: Iterable[int], stats: SearchStats | None = None) -> List[int]:
        """oids among ``candidates`` with ``simR ≥ τR`` and ``simT ≥ τT``.

        The spatial check runs first — it is a handful of float ops, while
        the textual check intersects token sets — behind Lemma 1's reject
        (the compiled query's ``band``).  At ``τR = 0`` it would keep
        every candidate (infinite regions included: both branches drop
        only on a true comparison), so it is skipped; so is the textual
        check at ``τT = 0``, where ``inter_w < 0·union_w`` is never true.
        """
        query = compile_query(query, self.weighter)
        if not hasattr(candidates, "__len__"):
            candidates = list(candidates)
        if query.tau_r == 0.0:
            survivors = candidates
        elif len(candidates) >= VECTOR_MIN_CANDIDATES:
            survivors = self._spatial_mask(query, candidates)
        else:
            survivors = self._spatial_loop(query, candidates, query.band is not None)
        if query.tau_t == 0.0:  # a fresh list of plain ints, as below
            answers = survivors.tolist() if hasattr(survivors, "tolist") else list(survivors)
        elif len(survivors) >= VECTOR_MIN_CANDIDATES:
            answers = self._textual_mask(query, survivors)
        else:
            answers = self._textual_loop(query, survivors)
        if stats is not None:
            stats.results = len(answers)
        return answers

    def _spatial_loop(self, query: CompiledQuery, candidates: Iterable[int], boxed: bool) -> List[int]:
        """The candidates passing the spatial threshold, one at a time;
        ``boxed`` (the query has a Lemma-1 ``band``): a box missing the
        query's is dropped before its exact overlap is computed."""
        if hasattr(candidates, "tolist"):
            # Columnar filters hand over integer arrays; convert once so
            # the loop sees plain ints (faster indexing, and answers never
            # leak NumPy scalar types to callers or snapshots).
            candidates = candidates.tolist()
        q_rect = query.region
        qx1, qy1, qx2, qy2 = q_rect.as_tuple()
        q_area = q_rect.area
        tau_r = query.tau_r
        corpus = self.corpus
        survivors: List[int] = []
        for oid in candidates:
            region = corpus[oid].region
            if boxed and (region.x1 > qx2 or region.y1 > qy2 or region.x2 < qx1 or region.y2 < qy1):
                continue
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

    def _spatial_mask(self, query: CompiledQuery, candidates):
        """:meth:`_spatial_loop` over the candidate array: Lemma 1's reject
        as one comparison of the gathered box columns against the query's
        bound column, then the exact test on what is left — the loop below
        :data:`VECTOR_MIN_CANDIDATES`, the kernel from it up, the same
        float64 operations either way, so the survivors are identical bit
        for bit."""
        oids = _oid_array(candidates)
        boxes = self._boxes.take(oids, axis=1)
        q_rect = query.region
        qx1, qy1, qx2, qy2 = q_rect.as_tuple()
        band = query.band
        if band is not None:
            # Rejected: a closed box missing the query's, or an area
            # outside the band.  Only a true ``>`` rejects, so a NaN area
            # falls through to the exact test.
            lower, upper = band
            bound = np.array((qx2, qy2, -qx1, -qy1, upper, -lower)).reshape(6, 1)
            near = ~(boxes > bound).any(axis=0)
            oids = oids[near]
            if len(oids) < VECTOR_MIN_CANDIDATES:
                return self._spatial_loop(query, oids, False)
            boxes = boxes[:, near]
        q_box = np.array((qx1, qy1, -qx2, -qy2)).reshape(4, 1)
        return oids[self._spatial_pass(boxes, q_box, q_rect.area, query.tau_r)]

    @staticmethod
    def _spatial_pass(boxes, q_box, q_area, tau_r) -> np.ndarray:
        """The exact spatial mask over gathered box columns ``boxes``.  The
        query's ``q_box`` (``x1, y1, −x2, −y2``), area and ``τR`` are one
        column and scalars (one query) or parallel to the columns (a
        batch's pairs); either way every element sees the float64
        operations of the loop.  ``gap`` is ``−dx, −dy``: ``min(qx2, x2)
        − max(qx1, x1)`` negated, which rounding preserves exactly."""
        gap = np.maximum(boxes[:2], q_box[:2]) + np.maximum(boxes[2:4], q_box[2:4])
        inter = gap[0] * gap[1]
        inter[(gap >= 0.0).any(axis=0)] = 0.0
        union = (q_area + boxes[4]) - inter
        # The exact negation of the loop's drop tests, so a NaN on either
        # side (an infinite region: 0·inf, inf − inf) decides as it does
        # there: kept unless a comparison is true.
        mask = ~(inter < tau_r * union)
        degenerate = ~(union > 0.0)
        if degenerate.any():
            # Two degenerate regions: similar only when identical, unless
            # τR is vacuous.
            identical = (boxes[:4] == q_box).all(axis=0)
            mask[degenerate] = (identical | (tau_r <= 0.0))[degenerate]
        return mask

    def _textual_loop(self, query: CompiledQuery, survivors) -> List[int]:
        """The survivors passing the textual threshold, one at a time;
        each intersection weight summed in the global token order."""
        if hasattr(survivors, "tolist"):
            survivors = survivors.tolist()
        if not survivors:
            return []
        q_weights, q_total, tau_t = query.weighted, query.total, query.tau_t
        totals = self._token_totals
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

    def _textual_mask(self, query: CompiledQuery, survivors) -> List[int]:
        """:meth:`_textual_loop` as one segmented kernel over the token CSR:
        gather the survivors' rows, keep the entries the query holds, and
        add each row's kept weights in row (= global) order with
        ``np.bincount`` — sequential, so bit-identical to the loop's sum
        (``np.add.reduceat`` sums pairwise and would not be)."""
        if not len(survivors):
            return []
        oids = _oid_array(survivors)
        token_rows = self._token_rows
        vocabulary = token_rows[0]
        q_ids = np.array([vocabulary[t] for t, _ in query.weighted if t in vocabulary], dtype=np.intp)
        keep = self._textual_pass(token_rows, oids, q_ids, None, 1, query.total, query.tau_t)
        return oids[keep].tolist()

    def _textual_pass(self, token_rows, oids, member_keys, row_keys, slots, q_total, tau_t):
        """The textual mask over ``oids``.  Membership is one boolean
        per ``slot · V + token id`` (V the CSR's id space): ``member_keys``
        are the held tokens' keys, ``row_keys`` each oid's slot offset —
        ``None`` (slot 0 of one) for a single query, ``slot · V`` per
        pair for a batch.  The ``slots × V`` booleans are allocated per
        call, so no state outlives it.  ``q_total`` and ``tau_t`` are
        scalars or per-oid."""
        _, weights, offsets, ids, totals = token_rows
        # ``take``, not ``[]``: it gathers through int32 indices (the
        # CSR's ids, a filter's candidates) without widening them first.
        starts = offsets.take(oids)
        lengths = offsets.take(oids + 1) - starts
        ends = np.cumsum(lengths)
        # Entry j of the gathered run sits j - (its row's run start)
        # entries into that row.
        entries = ids.take(np.arange(ends[-1]) + np.repeat(starts - ends + lengths, lengths))
        keys = entries if row_keys is None else entries + np.repeat(row_keys, lengths)
        member = np.zeros(slots * len(weights), dtype=bool)
        member[member_keys] = True
        held = np.flatnonzero(member.take(keys))
        row = np.repeat(np.arange(len(oids)), lengths).take(held)
        inter = np.bincount(row, weights=weights.take(entries.take(held)), minlength=len(oids))
        union = q_total + totals.take(oids) - inter
        return ~((union > 0.0) & (inter < tau_t * union))

    def verify_batch(
        self,
        queries: Sequence[Query],
        pair_queries: np.ndarray,
        pair_oids: np.ndarray,
        stats: Sequence[SearchStats] | None = None,
    ) -> List[List[int]]:
        """:meth:`verify` of many queries over their ``(query position,
        candidate oid)`` pairs, grouped by query, in one pass per check.

        Both checks are the kernels of :meth:`verify`, each pair seeing
        its own query's coordinates, area and thresholds — the same
        float64 operations, so the answers are those of :meth:`verify`
        bit for bit.  The textual membership test keys every held token
        ``slot · V + id``, a slot per query with a pair to check (a
        ``τR = 0`` query's pairs skip the spatial check and a ``τT = 0``
        query's the textual one, as in :meth:`verify`), so
        its boolean array is at most batch × V bytes; each pair's held
        weights are added with ``np.bincount`` in row (= global token)
        order, the sum every branch takes.

        Returns:
            Each query's answers, in the order of its pairs.
        """
        queries = [compile_query(query, self.weighter) for query in queries]
        fields = np.array(
            [_box_rows(*q.region.as_tuple())[:5] + (q.tau_r, q.tau_t) for q in queries],
            dtype=np.float64,
        ).reshape(-1, 7).T
        kept = fields[5].take(pair_queries) == 0.0  # no spatial check
        if not kept.all():
            checked = ~kept
            per_pair = fields[:6].take(pair_queries[checked], axis=1)
            kept[checked] = self._spatial_pass(
                self._boxes.take(pair_oids[checked], axis=1),
                per_pair[:4], per_pair[4], per_pair[5],
            )
            pair_queries = pair_queries[kept]
            pair_oids = pair_oids[kept]
        kept = fields[6].take(pair_queries) == 0.0  # no textual check
        if not kept.all():
            checked = ~kept
            at = pair_queries[checked]
            token_rows = self._token_rows
            vocabulary, stride = token_rows[0], len(token_rows[1])
            # A membership slot per query with a pair to check, numbered
            # by its rank among them.
            live = np.flatnonzero(np.bincount(at)).tolist()
            member_keys = [
                slot * stride + vocabulary[t]
                for slot, position in enumerate(live)
                for t, _ in queries[position].weighted if t in vocabulary
            ]
            slots = np.zeros(len(queries), dtype=np.intp)
            slots[live] = np.arange(len(live))
            q_totals = np.zeros(len(queries))
            q_totals[live] = [queries[position].total for position in live]
            kept[checked] = self._textual_pass(
                token_rows, pair_oids[checked], np.array(member_keys, dtype=np.intp),
                slots.take(at) * stride, len(live), q_totals.take(at), fields[6].take(at),
            )
            pair_queries = pair_queries[kept]
            pair_oids = pair_oids[kept]
        answers = pair_oids.tolist()
        bounds = np.cumsum(np.bincount(pair_queries, minlength=len(queries))).tolist()
        out = [answers[start:end] for start, end in zip([0] + bounds, bounds)]
        if stats is not None:
            for entry, kept_oids in zip(stats, out):
                entry.results = len(kept_oids)
        return out

    def __getstate__(self):
        # The shape slotted classes pickle to by default, each array cut
        # to the corpus (an appended-to verifier's spare capacity is not
        # state) and packed for the snapshot's sidecar.
        rows = len(self.corpus)
        vocabulary, weights, offsets, ids, totals = self._token_rows
        boxes, *arrays = pack_arrays([self._boxes[:, :rows], weights[: len(vocabulary)],
                                      offsets[: rows + 1], ids[: offsets[rows]], totals[:rows]])
        return None, {"corpus": self.corpus, "weighter": self.weighter,
                      "_token_totals": self._token_totals,
                      "_boxes": boxes, "_token_rows": (vocabulary, *arrays)}

    def __setstate__(self, state) -> None:
        fields = state[1]
        if "_token_rows" in fields:
            vocabulary, *packed = fields["_token_rows"]
            self._boxes, *arrays = unpack_arrays([fields["_boxes"], *packed])
            self.corpus, self.weighter = fields["corpus"], fields["weighter"]
            self._token_rows = (vocabulary, *arrays)
        else:
            # Pickled before the columns travelled with it: derive them
            # once, now, and answer with the totals it was saved with.
            self.__init__(fields["corpus"], fields["weighter"])
            self._token_rows = (*self._token_rows[:4], np.array(fields["_token_totals"]))
        self._token_totals = fields["_token_totals"]
