"""Posting lists sorted descending by threshold bound (Lemma 3).

A posting ``(oid, bound)`` says: object ``oid`` keeps this element in its
signature prefix for any similarity threshold ``c ≤ bound``.  Storing
postings in descending bound order turns a threshold probe into a binary
search for the cut point — the paper's "inverted index with threshold
bounds" (Figure 5).

Two flavours:

* :class:`PostingList` — one bound (textual or spatial filtering).
* :class:`DualBoundPostingList` — spatial *and* textual bounds per
  posting, for the hybrid ``(token, cell)`` lists of Section 5.1; sorted
  by the spatial bound (binary-searched), the textual bound checked on
  the qualifying head.

Lists are built in *staging* mode (cheap appends) and must be
:meth:`frozen <PostingList.freeze>` before probing; freezing sorts once
and converts to compact parallel arrays.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Sequence, Tuple


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

    @classmethod
    def from_columns(cls, oids: List[int], neg_bounds: List[float]) -> "PostingList":
        """A frozen list over columns already in ``(-bound, oid)`` order
        (the bulk-load path; what :meth:`freeze` would have produced)."""
        plist = cls()
        plist._staging = None
        plist.oids = oids
        plist._neg_bounds = neg_bounds
        return plist

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

        This is the exact layout the columnar backend concatenates into
        CSR arrays, so both backends inherit one ``(-bound, oid)`` order.
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

    @classmethod
    def from_columns(
        cls, oids: List[int], neg_r_bounds: List[float], t_bounds: List[float]
    ) -> "DualBoundPostingList":
        """A frozen list over columns already in ``(-r_bound, oid)`` order."""
        plist = cls()
        plist._staging = None
        plist.oids = oids
        plist._neg_r_bounds = neg_r_bounds
        plist.t_bounds = t_bounds
        return plist

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
