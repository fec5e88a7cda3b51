"""Per-list reference for the inverted index (test-only oracle).

This is the posting storage ``src/`` used to carry next to the CSR
columns: one Python posting list per signature element, filled one
``add`` per posting in *staging* mode (cheap appends), sorted once at
:meth:`freeze <PostingList.freeze>` into descending bound order (ties by
ascending oid, then arrival), probed with ``bisect`` (Lemma 3,
Figure 5):

* :class:`PostingList` — one bound (textual or spatial filtering).
* :class:`DualBoundPostingList` — spatial *and* textual bounds per
  posting, for the hybrid ``(token, cell)`` lists of Section 5.1; sorted
  by the spatial bound (binary-searched), the textual bound checked on
  the qualifying head.
* :class:`ReferenceIndex` — a dict of those lists, keyed by element
  code, with the probe loop and its accounting in plain Python.

The differential tests build every filter's index both ways —
``reference_*`` here and in ``tests/reference_hss.py`` stage posting by
posting exactly as the filters once did, keyed by the filter's element
codes — and require the bulk-loaded
:class:`~repro.index.inverted.InvertedIndex` to be the same index, list
by list in code order and posting for posting
(:func:`assert_same_index`), and to answer every probe with the same
heads and statistics.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Hashable, List, Sequence, Set, Tuple

import numpy as np

from repro.core.stats import SearchStats
from repro.index.inverted import InvertedIndex
from repro.signatures.prefix import suffix_bounds


class PostingList:
    """Postings ``(oid, bound)`` ordered by descending bound.

    Examples:
        >>> plist = PostingList()
        >>> plist.add(7, bound=900.0)
        >>> plist.add(2, bound=550.0)
        >>> plist.freeze()
        >>> plist.retrieve(600.0)
        [7]
    """

    __slots__ = ("_staging", "oids", "_neg_bounds")

    def __init__(self) -> None:
        self._staging: List[Tuple[float, int]] | None = []
        self.oids: List[int] = []
        self._neg_bounds: List[float] = []

    def add(self, oid: int, bound: float) -> None:
        """Stage one posting (only before :meth:`freeze`)."""
        if self._staging is None:
            raise RuntimeError("PostingList is frozen; cannot add postings")
        self._staging.append((bound, oid))

    def freeze(self) -> None:
        """Sort by descending bound and switch to probe mode (idempotent)."""
        if self._staging is None:
            return
        self._staging.sort(key=lambda item: (-item[0], item[1]))
        self.oids = [oid for _, oid in self._staging]
        # Negated bounds are ascending, which is what bisect wants.
        self._neg_bounds = [-bound for bound, _ in self._staging]
        self._staging = None

    def retrieve(self, min_bound: float) -> Sequence[int]:
        """All oids with ``bound >= min_bound`` — the head of the list.

        The paper's ``I_c(s) = {o ∈ I(s) | c_s(o) ≥ c}`` (Section 4.2).
        """
        if self._staging is not None:
            raise RuntimeError("PostingList must be frozen before retrieval")
        cut = bisect_right(self._neg_bounds, -min_bound)
        return self.oids[:cut]

    def columns(self) -> Tuple[List[int], List[float]]:
        """The frozen ``(oids, negated bounds)`` columns, probe order.

        This is the layout the CSR index concatenates row after row.
        """
        if self._staging is not None:
            raise RuntimeError("PostingList must be frozen before export")
        return self.oids, self._neg_bounds

    def __len__(self) -> int:
        if self._staging is not None:
            return len(self._staging)
        return len(self.oids)

    def __iter__(self):
        if self._staging is not None:
            return iter((oid, bound) for bound, oid in self._staging)
        return iter(zip(self.oids, (-b for b in self._neg_bounds)))


class DualBoundPostingList:
    """Postings ``(oid, spatial bound, textual bound)`` for hybrid lists.

    Sorted descending by the spatial bound; a probe binary-searches the
    spatial cut and then filters the head by the textual bound.  Either
    bound below its threshold prunes the posting (Section 5.1: "if either
    c_T > c_T_h(o) or c_R > c_R_h(o), o can be safely pruned").
    """

    __slots__ = ("_staging", "oids", "_neg_r_bounds", "t_bounds")

    def __init__(self) -> None:
        self._staging: List[Tuple[float, float, int]] | None = []
        self.oids: List[int] = []
        self._neg_r_bounds: List[float] = []
        self.t_bounds: List[float] = []

    def add(self, oid: int, r_bound: float, t_bound: float) -> None:
        if self._staging is None:
            raise RuntimeError("DualBoundPostingList is frozen; cannot add postings")
        self._staging.append((r_bound, t_bound, oid))

    def freeze(self) -> None:
        if self._staging is None:
            return
        self._staging.sort(key=lambda item: (-item[0], item[2]))
        self.oids = [oid for _, _, oid in self._staging]
        self._neg_r_bounds = [-r for r, _, _ in self._staging]
        self.t_bounds = [t for _, t, _ in self._staging]
        self._staging = None

    def retrieve(self, min_r_bound: float, min_t_bound: float) -> Tuple[List[int], int]:
        """oids passing both bounds, plus how many postings were *scanned*.

        Returns:
            ``(oids, scanned)`` — ``scanned`` is the spatial-qualifying
            head length, the honest probe cost (the textual check touches
            each of those entries).
        """
        if self._staging is not None:
            raise RuntimeError("DualBoundPostingList must be frozen before retrieval")
        cut = bisect_right(self._neg_r_bounds, -min_r_bound)
        oids = self.oids
        t_bounds = self.t_bounds
        out = [oids[i] for i in range(cut) if t_bounds[i] >= min_t_bound]
        return out, cut

    def columns(self) -> Tuple[List[int], List[float], List[float]]:
        """Frozen ``(oids, negated spatial bounds, textual bounds)`` columns."""
        if self._staging is not None:
            raise RuntimeError("DualBoundPostingList must be frozen before export")
        return self.oids, self._neg_r_bounds, self.t_bounds

    def __len__(self) -> int:
        if self._staging is not None:
            return len(self._staging)
        return len(self.oids)

    def __iter__(self):
        if self._staging is not None:
            return iter((oid, r, t) for r, t, oid in self._staging)
        return iter(
            (oid, -nr, t) for oid, nr, t in zip(self.oids, self._neg_r_bounds, self.t_bounds)
        )


class ReferenceIndex:
    """element → staged posting list, probed list by list in Python.

    Args:
        dual: Whether postings carry a second (textual) bound.
    """

    def __init__(self, *, dual: bool = False) -> None:
        self.dual = dual
        self.lists: Dict[Hashable, PostingList | DualBoundPostingList] = {}

    def add(self, element, oid: int, bound: float, t_bound: float | None = None) -> None:
        """Stage one posting; the list is created on first use, which is
        what fixes the directory order."""
        plist = self.lists.get(element)
        if plist is None:
            plist = self.lists[element] = DualBoundPostingList() if self.dual else PostingList()
        if self.dual:
            plist.add(oid, bound, t_bound)
        else:
            plist.add(oid, bound)

    def freeze(self) -> "ReferenceIndex":
        for plist in self.lists.values():
            plist.freeze()
        return self

    def union_heads(
        self, elements: Sequence[Hashable], bound: float, t_bound: float | None, stats: SearchStats
    ) -> Set[int]:
        """The probe loop and its accounting rule, one list at a time: a
        single-bound miss counts as a probe, a dual-bound one does not."""
        out: Set[int] = set()
        for element in elements:
            plist = self.lists.get(element)
            if t_bound is None:
                head = plist.retrieve(bound) if plist is not None else []
                scanned = len(head)
            elif plist is None:
                continue
            else:
                head, scanned = plist.retrieve(bound, t_bound)
            stats.lists_probed += 1
            stats.entries_retrieved += scanned
            stats.entries_matched += len(head)
            out.update(head)
        return out


def _float64_bytes(values) -> bytes:
    return np.fromiter(values, dtype=np.float64).tobytes()


def assert_same_index(built: InvertedIndex, expected: ReferenceIndex) -> None:
    """The bulk-loaded index is the staged one, list by list in code
    order: the code column, row boundaries, oids and every bound column,
    bit for bit; ties on ``(bound, oid)`` in arrival order;
    ``rows_unique`` iff no list repeats an oid."""
    assert (built.t_bounds is not None) == expected.dual
    codes = sorted(expected.lists)
    assert built.codes.tolist() == codes
    assert built.codes.dtype == np.int64
    columns = [expected.lists[code].columns() for code in codes]
    cuts = [0]
    for oids, *_ in columns:
        cuts.append(cuts[-1] + len(oids))
    assert built.offsets.tolist() == cuts
    assert built.oids.tolist() == [oid for oids, *_ in columns for oid in oids]
    assert built.neg_bounds.tobytes() == _float64_bytes(b for _, neg, *_ in columns for b in neg)
    if expected.dual:
        assert built.t_bounds.tobytes() == _float64_bytes(t for *_, ts in columns for t in ts)
    else:
        assert built.t_bounds is None
    assert built.rows_unique == all(len(set(oids)) == len(oids) for oids, *_ in columns)
    for column in (built.codes, built.offsets, built.oids, built.neg_bounds, built.t_bounds):
        assert column is None or not column.flags.writeable


def single_scheme_index(method) -> ReferenceIndex:
    """``SingleSchemeFilter``'s build as it was: one ``add`` per signature
    element of every object, Lemma-3 bounds under prefix pruning and raw
    weights without."""
    index = ReferenceIndex()
    for obj in method.corpus:
        signature = method.scheme.object_signature(obj)
        weights = [w for _, w in signature]
        bounds = suffix_bounds(weights) if method.prefix_pruning else weights
        codes = method.encode([element for element, _ in signature])
        for code, bound in zip(codes, bounds):
            index.add(code, obj.oid, bound)
    return index.freeze()


def keyword_index(method) -> ReferenceIndex:
    """``KeywordFirstSearch``'s plain postings: every bound 0.0."""
    index = ReferenceIndex()
    for obj in method.corpus:
        for token in obj.tokens:
            index.add(method.token_ids[token], obj.oid, 0.0)
    return index.freeze()
