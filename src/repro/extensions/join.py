"""Spatio-textual similarity self-join.

The string-similarity literature the paper builds on (Chaudhuri et al.'s
prefix filtering, Bayardo et al.'s all-pairs) is mostly about *joins*:
find every pair of records whose similarity reaches a threshold.  The
spatio-textual analogue falls straight out of SEAL's machinery and is
what the motivating applications batch-run overnight (mutual friend
suggestions, audience overlap between advertisers):

    J = { (a, b) : a.oid < b.oid, simR(a,b) ≥ τR, simT(a,b) ≥ τT }

The implementation is the classic index-nested-loop over a *growing*
index: objects are processed in oid order; each object first queries the
hybrid ``(token, cell)`` index of the objects before it (prefix × prefix
probes with dual Lemma-3 bounds — the same soundness argument as
``Hybrid-Sig-Filter+``, with the roles of "query" and "object" both
played by objects), then adds its own prefix postings.  Indexing only
prefixes keeps the index small and is sufficient: any qualifying pair
shares a prefix element on both sides.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.errors import ConfigurationError
from repro.core.objects import SpatioTextualObject
from repro.core.similarity import filter_threshold, textual_similarity
from repro.geometry.rect import mbr_of, spatial_jaccard
from repro.signatures.prefix import select_prefix, suffix_bounds
from repro.signatures.spatial import GridScheme
from repro.signatures.textual import TextualScheme
from repro.text.weights import TokenWeighter


def similarity_join(
    objects: Sequence[SpatioTextualObject],
    tau_r: float,
    tau_t: float,
    *,
    weighter: TokenWeighter | None = None,
    granularity: int = 64,
) -> List[Tuple[int, int]]:
    """All object pairs similar on both axes (Definition 3, symmetric).

    Args:
        objects: The corpus.  Oids may be sparse or permuted — the
            implementation indexes by *position* internally and only
            reports oids in the output pairs (oids must be distinct;
            a pair of objects sharing an oid is outside Definition 3's
            ``a.oid < b.oid`` and is never reported).
        tau_r: Spatial Jaccard threshold; must be > 0 (a zero spatial
            threshold makes the join the full textual cross product —
            run it axis-wise instead).
        tau_t: Textual Jaccard threshold; must be > 0 for the same
            reason.
        weighter: Corpus idf statistics (built if omitted).
        granularity: Grid granularity for the spatial signatures.

    Returns:
        Sorted ``(a, b)`` pairs with ``a < b``.

    Raises:
        ConfigurationError: If either threshold is not positive.
    """
    if tau_r <= 0.0 or tau_t <= 0.0:
        raise ConfigurationError(
            "similarity_join requires positive thresholds on both axes"
        )
    if not objects:
        return []
    if weighter is None:
        weighter = TokenWeighter(obj.tokens for obj in objects)
    textual = TextualScheme(weighter)
    spatial = GridScheme.from_corpus(objects, granularity)
    token_totals = [weighter.total_weight(obj.tokens) for obj in objects]

    # Growing inverted index: (token, cell) -> [(position, r_bound,
    # t_bound)].  Postings carry corpus *positions*, never oids — oids
    # may be sparse or permuted, so indexing ``objects`` by oid would
    # silently pair the wrong records.  Lists stay small (prefix
    # postings only) and grow as the join advances, so plain lists
    # beat a bulk-loaded index here.
    index: Dict[Tuple[str, int], List[Tuple[int, float, float]]] = {}
    results: List[Tuple[int, int]] = []

    # Objects with zero total token weight never enter the token index,
    # yet pair with each other at simT = 1 (indistinguishable-to-the-
    # weighting sets).  With tau_t > 0 they can *only* pair with other
    # zero-weight objects, so one quadratic pass over that (tiny) group
    # keeps the join exact.
    zero_weight = [
        obj for pos, obj in enumerate(objects) if token_totals[pos] <= 0.0
    ]
    for i, a in enumerate(zero_weight):
        for b in zero_weight[i + 1 :]:
            if spatial_jaccard(a.region, b.region) >= tau_r:
                if textual_similarity(a.tokens, b.tokens, weighter) >= tau_t:
                    pair = _ordered_pair(a.oid, b.oid)
                    if pair is not None:
                        results.append(pair)

    for pos, obj in enumerate(objects):
        if token_totals[pos] <= 0.0:
            continue
        token_sig = textual.object_signature(obj)
        token_bounds = suffix_bounds([w for _, w in token_sig])
        cell_sig = spatial.object_signature(obj)
        cell_bounds = suffix_bounds([w for _, w in cell_sig])

        # Thresholds with this object in the "query" role.  simT(a,b) ≥ τT
        # implies common weight ≥ τT·max(W_a, W_b) ≥ τT·W_obj; similarly
        # the spatial overlap is ≥ τR·|obj.R|.
        c_t = filter_threshold(tau_t, token_totals[pos])
        c_r = filter_threshold(tau_r, obj.region.area)
        token_prefix_len = select_prefix([w for _, w in token_sig], c_t)
        cell_prefix_len = select_prefix([w for _, w in cell_sig], c_r)

        # Probe phase: candidates among earlier objects.
        seen: set[int] = set()
        for token, _ in token_sig[:token_prefix_len]:
            for cell, _ in cell_sig[:cell_prefix_len]:
                postings = index.get((token, cell))
                if not postings:
                    continue
                for other_pos, r_bound, t_bound in postings:
                    if other_pos in seen or r_bound < c_r or t_bound < c_t:
                        continue
                    seen.add(other_pos)
                    other = objects[other_pos]
                    if spatial_jaccard(obj.region, other.region) < tau_r:
                        continue
                    if textual_similarity(obj.tokens, other.tokens, weighter) < tau_t:
                        continue
                    pair = _ordered_pair(other.oid, obj.oid)
                    if pair is not None:
                        results.append(pair)

        # Index phase: publish this object's prefix postings.  Indexing
        # prefixes only is sound — if the pair qualifies, each side's
        # prefix contains the first common element of the other's.
        for (token, _), t_bound in list(zip(token_sig, token_bounds))[:token_prefix_len]:
            for (cell, _), r_bound in list(zip(cell_sig, cell_bounds))[:cell_prefix_len]:
                index.setdefault((token, cell), []).append((pos, r_bound, t_bound))

    results.sort()
    return results


def _ordered_pair(a: int, b: int) -> Tuple[int, int] | None:
    """The join pair ``(min, max)`` — None for equal oids (outside J)."""
    if a == b:
        return None
    return (a, b) if a < b else (b, a)


def brute_force_join(
    objects: Sequence[SpatioTextualObject],
    tau_r: float,
    tau_t: float,
    weighter: TokenWeighter | None = None,
) -> List[Tuple[int, int]]:
    """O(n²) reference join (the correctness oracle for tests).

    Oid-agnostic like :func:`similarity_join`: pairs come back sorted as
    ``(min(oid), max(oid))`` whatever the input order.
    """
    if weighter is None and objects:
        weighter = TokenWeighter(obj.tokens for obj in objects)
    out: List[Tuple[int, int]] = []
    for i, a in enumerate(objects):
        for b in objects[i + 1 :]:
            if spatial_jaccard(a.region, b.region) < tau_r:
                continue
            if textual_similarity(a.tokens, b.tokens, weighter) < tau_t:
                continue
            pair = _ordered_pair(a.oid, b.oid)
            if pair is not None:
                out.append(pair)
    out.sort()
    return out
