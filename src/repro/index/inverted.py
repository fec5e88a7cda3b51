"""The inverted index over signature elements: one CSR posting store.

The paper has one index structure — an inverted list per signature
element (token, cell id, or hybrid key), sorted by threshold bound and
probed by a cut (Section 4.2, Lemma 3, Figure 5; the hybrid lists of
Section 5.1 add a second bound column), keyed here by an int64 *code*
each filter derives from its element: a token's id in the index's own
vocabulary, a cell id, a packed ``(token, cell)`` pair or its hash
bucket.  :class:`InvertedIndex` holds *every* list of one index in one
set of contiguous parallel NumPy arrays in CSR layout:

* ``codes`` is the directory: row ``r`` is the list of element
  ``codes[r]``, codes ascending;
* ``offsets[row] .. offsets[row + 1]`` delimits one list's postings;
* ``oids`` holds the object ids, ``neg_bounds`` the negated primary
  (threshold) bounds — negated so each row is *ascending* and a probe is
  one ``searchsorted``; ``t_bounds`` carries the second (textual) bound
  column of a dual-bound hybrid index and is ``None`` otherwise.

There is one way in: :meth:`InvertedIndex.from_postings` takes flat
posting columns (one code, oid and bound(s) per posting, in any order),
numbers the rows in ascending code order and sorts every row into
``(-bound, oid)`` order, all in one ``lexsort``.  Every filter gathers
its postings as such columns and loads once.

There is one probe loop: :meth:`InvertedIndex.union_heads` — what every
signature filter's ``candidates`` runs — opens each named list, takes
the head its bound(s) qualify as a zero-copy view and unions the heads
through a reusable :class:`CandidateScratch` buffer (heads collected per
query, one concatenate + dedup) instead of a per-query Python set.
:meth:`probe` is its single-list form, for the callers that want one
head (the I/O model, the keyword-first baseline).

The per-list reference — staged Python posting lists sorted at freeze,
probed with ``bisect`` — lives in ``tests/reference_postings.py``; the
differential tests build both ways and require the same index posting
for posting and the same heads and statistics probe for probe.

The module also owns the array-externalisation hooks snapshots use:
inside :func:`externalize_arrays` a pickled index replaces its arrays
with :class:`_ExternArray` markers and appends the arrays to the sink
(they are then written to an ``.npz`` sidecar); inside
:func:`resolve_arrays` unpickling resolves the markers from the loaded
(optionally memory-mapped) sidecar.  Outside those contexts indexes
pickle self-contained, arrays inline.

Concurrency: the columns are read-only once loaded, and all mutable
probe state (:class:`CandidateScratch`) is thread-local per index, so
concurrent queries against one engine stay correct while each thread
reuses its own buffers query after query.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as _np

from repro.core.stats import SearchStats


@dataclass(frozen=True)
class _ExternArray:
    """Pickle placeholder for an array moved to the snapshot sidecar."""

    index: int


#: Active externalisation sink/source (snapshot save/load only; snapshot
#: operations are not concurrent in this library).
_EXTERN_SINK: List | None = None
_EXTERN_SOURCE: Sequence | None = None


@contextlib.contextmanager
def externalize_arrays(sink: List):
    """While active, pickling an index appends its arrays to ``sink``."""
    global _EXTERN_SINK
    previous = _EXTERN_SINK
    _EXTERN_SINK = sink
    try:
        yield sink
    finally:
        _EXTERN_SINK = previous


@contextlib.contextmanager
def resolve_arrays(source: Sequence):
    """While active, unpickling an index resolves extern markers from ``source``."""
    global _EXTERN_SOURCE
    previous = _EXTERN_SOURCE
    _EXTERN_SOURCE = source
    try:
        yield
    finally:
        _EXTERN_SOURCE = previous


class CandidateScratch:
    """Reusable candidate-union buffer: collect heads, dedup once.

    A probe only appends its zero-copy head view to ``heads`` (a Python
    ``list.append``, no array work); ``result`` concatenates every head
    into one reusable buffer and deduplicates with a single sort.  Doing
    the union once per query instead of once per probed list is what
    keeps short-head probes cheap while long heads get full
    vectorisation.  One instance serves every query a thread runs against
    its index; the buffer grows to the high-water total head length and
    is then reused round after round.
    """

    __slots__ = ("heads", "buffer", "acc", "rows_unique")

    def __init__(self, *, rows_unique: bool = False) -> None:
        self.heads: List = []
        self.buffer = _np.empty(0, dtype=_np.int32)
        #: Similarity accumulator for the plain Sig-Filter kernel; zeroed
        #: lazily, then kept zeroed by resetting only the touched oids.
        self.acc = None
        #: The owning index guarantees no single head repeats an oid, so
        #: a one-head round needs no dedup at all (cross-head duplicates
        #: are the only other source, and one head has no "cross").
        self.rows_unique = rows_unique

    def result(self):
        """The deduplicated union as an owned array."""
        heads = self.heads
        if not heads:
            return _EMPTY_OIDS
        if len(heads) == 1 and self.rows_unique:
            out = heads[0].copy()  # heads are views into the index
            heads.clear()
            return out
        total = sum(map(len, heads))
        if len(self.buffer) < total:
            self.buffer = _np.empty(total, dtype=_np.int32)
        gathered = self.buffer[:total]
        if len(heads) == 1:
            # Copy even a single head: probe heads are views into the
            # index's oids column, and the dedup sorts in place.
            _np.copyto(gathered, heads[0])
        else:
            _np.concatenate(heads, out=gathered)
        heads.clear()
        # Sort + neighbour mask, not np.unique: NumPy's hash-based unique
        # kernel is an order of magnitude slower at candidate-set sizes.
        gathered.sort()
        if total == 1:
            return gathered.copy()
        keep = _np.empty(total, dtype=bool)
        keep[0] = True
        _np.not_equal(gathered[1:], gathered[:-1], out=keep[1:])
        return gathered[keep]

    def accumulator(self, size: int):
        """A zeroed float64 accumulator over ``size`` oids, reused across
        rounds — the caller must zero the slots it touched when done
        (``acc[touched] = 0.0``), which keeps the per-query reset cost
        O(touched) instead of O(corpus)."""
        acc = self.acc
        if acc is None or len(acc) < size:
            acc = self.acc = _np.zeros(size, dtype=_np.float64)
        return acc


class InvertedIndex:
    """element code → bound-sorted posting list, all lists in CSR columns.

    Build with :meth:`from_postings`; the constructor takes columns that
    are already in CSR layout.

    Attributes:
        codes: ``int64[num_rows]`` the directory — row ``r`` is the list
            of element ``codes[r]``; ascending, no repeats.
        offsets: ``int64[num_rows + 1]`` CSR row boundaries.
        oids: ``int32[num_postings]`` object ids, row-major — the 4-byte
            oid of the storage model (Table 1); also what keeps the
            candidate sort fast.
        neg_bounds: ``float64[num_postings]`` negated primary bounds
            (ascending within each row — what ``searchsorted`` wants).
        t_bounds: ``float64[num_postings]`` textual bounds of a
            dual-bound index; ``None`` on a single-bound one.
        rows_unique: No row repeats an oid — true for every index except
            bucketed hybrids, where two colliding ``(token, cell)`` pairs
            of one object land in the same list.

    Examples:
        >>> index = InvertedIndex.from_postings([7, 7], [0, 1], [1.5, 0.5])
        >>> index.probe(7, 1.0).tolist()
        [0]
    """

    __slots__ = (
        "codes", "offsets", "oids", "neg_bounds", "t_bounds", "rows_unique",
        "_row_of", "_starts", "_scratch",
    )

    def __init__(
        self, codes, offsets, oids, neg_bounds, t_bounds=None, *, rows_unique=False
    ) -> None:
        self.rows_unique = rows_unique
        self.codes = codes
        self.offsets = offsets
        self.oids = oids
        self.neg_bounds = neg_bounds
        self.t_bounds = t_bounds
        # Probe results are zero-copy views into these columns; freeze
        # them so a caller mutating a returned head (e.g. sorting it)
        # cannot silently corrupt the index.  Internal kernels copy
        # before mutating, so this costs nothing.
        for column in (codes, offsets, oids, neg_bounds, t_bounds):
            if column is not None:
                column.setflags(write=False)
        # The directory as an int-keyed dict and the row boundaries as
        # plain ints: a probe looks up and slices with them constantly,
        # and Python ints beat NumPy scalars at both.  Derived, never
        # pickled.
        self._row_of: Dict[int, int] = dict(zip(codes.tolist(), range(len(codes))))
        self._starts: List[int] = offsets.tolist()
        # One scratch per thread: concurrent queries against one index
        # (e.g. user threads sharing an engine) must not share union
        # state, while each thread still reuses its buffers query after
        # query.
        self._scratch = threading.local()

    @classmethod
    def from_postings(cls, codes, oids, bounds, t_bounds=None) -> "InvertedIndex":
        """Build from flat posting columns — the one way in.

        Args:
            codes: Element code of each posting; the postings of one code
                form one list.
            oids: Object id of each posting.
            bounds: Threshold bound of each posting (the spatial bound of
                a dual-bound index).
            t_bounds: Textual bound of each posting; its presence is what
                makes the index dual-bound.

        Postings may arrive in any order.  Rows are numbered in ascending
        code order, and each row ends up in ``(-bound, oid)`` order,
        postings that tie on both keeping their arrival order (a stable
        sort) — exactly what staging them one by one into per-element
        lists and sorting each list produces.

        Raises:
            ValueError: When the columns differ in length.
        """
        codes = _np.asarray(codes, dtype=_np.int64)
        oids = _np.asarray(oids, dtype=_np.int32)
        neg_bounds = -_np.asarray(bounds, dtype=_np.float64)
        if t_bounds is not None:
            t_bounds = _np.asarray(t_bounds, dtype=_np.float64)
        if any(len(column) != len(codes) for column in (oids, neg_bounds, t_bounds)
               if column is not None):
            raise ValueError("every posting needs one code, oid and bound per column")
        order = _np.lexsort((oids, neg_bounds, codes))
        codes = codes[order]
        oids = oids[order]
        opens = _np.ones(len(codes), dtype=bool)
        _np.not_equal(codes[1:], codes[:-1], out=opens[1:])
        starts = _np.flatnonzero(opens)
        # A row repeats an oid iff some (row, oid) pair occurs twice.
        pairs = (_np.cumsum(opens) - 1) * (int(oids.max()) + 1 if len(oids) else 1) + oids
        pairs.sort()
        return cls(
            codes[starts],
            _np.append(starts, len(codes)).astype(_np.int64),
            oids,
            neg_bounds[order],
            None if t_bounds is None else t_bounds[order],
            rows_unique=not bool((pairs[1:] == pairs[:-1]).any()),
        )

    # ------------------------------------------------------------------
    # Shape and statistics
    # ------------------------------------------------------------------

    def __contains__(self, code: int) -> bool:
        return code in self._row_of

    def __len__(self) -> int:
        """Number of posting lists."""
        return len(self.codes)

    def num_postings(self) -> int:
        return self._starts[-1]

    def list_length(self, code: int) -> int:
        """Postings in the list of ``code`` (0 when it has none)."""
        row = self._row_of.get(code)
        if row is None:
            return 0
        return self._starts[row + 1] - self._starts[row]

    def list_lengths(self):
        """Postings per list, as an array in directory (= code) order."""
        return _np.diff(self.offsets)

    # ------------------------------------------------------------------
    # Probe kernels
    # ------------------------------------------------------------------

    def probe(self, code: int, min_bound: float):
        """One list's head: the oids of ``code``'s postings whose
        primary bound reaches ``min_bound`` — the paper's ``I_c(s)``
        (Section 4.2) — as a zero-copy int32 view, empty on a directory
        miss.  On a dual-bound index this is the head the spatial bound
        cuts, before the textual bound is checked."""
        row = self._row_of.get(code)
        if row is None:
            return _EMPTY_OIDS
        start = self._starts[row]
        # ndarray.searchsorted (not np.searchsorted): the module-level
        # wrapper's dispatch costs microseconds per probe.
        cut = start + int(
            self.neg_bounds[start : self._starts[row + 1]].searchsorted(-min_bound, side="right")
        )
        return self.oids[start:cut]

    def union_heads(
        self,
        codes: Sequence[int],
        bound: float,
        t_bound: float | None,
        stats: SearchStats,
    ):
        """The filter step of Sig-Filter+ and Hybrid-Sig-Filter+: open each
        code's list, take the head its bound(s) qualify, union the heads.

        Args:
            codes: The lists to open, in probe order, without repeats.
            bound: Primary threshold (the spatial one of a dual-bound index).
            t_bound: Textual threshold of a dual-bound index, else ``None``.
            stats: Receives the probe accounting.

        A single-bound probe of a code with no list still counts as a
        probe (the directory lookup happens either way) and retrieves an
        empty head; a dual-bound one does not — a hybrid key nothing was
        posted to is no list at all.  ``entries_retrieved`` is the head
        the primary bound cuts, ``entries_matched`` what survives the
        textual bound too.

        Returns:
            The union as a deduplicated array (sorted whenever more than
            one head went into it).
        """
        scratch = self.begin_union()
        heads = scratch.heads
        row_of = self._row_of.get
        starts, oids, neg_bounds, t_bounds = self._starts, self.oids, self.neg_bounds, self.t_bounds
        neg_bound = -bound
        opened = retrieved = matched = 0
        for code in codes:
            row = row_of(code)
            if row is None:
                continue
            opened += 1
            start = starts[row]
            # int(): a NumPy scalar must not leak into the statistics.
            scanned = int(
                neg_bounds[start : starts[row + 1]].searchsorted(neg_bound, side="right")
            )
            if not scanned:
                continue
            retrieved += scanned
            head = oids[start : start + scanned]
            if t_bound is not None:
                head = head[t_bounds[start : start + scanned] >= t_bound]
                if not len(head):
                    continue
            matched += len(head)
            heads.append(head)
        stats.lists_probed += len(codes) if t_bound is None else opened
        stats.entries_retrieved += retrieved
        stats.entries_matched += matched
        return scratch.result()

    def accumulate(self, acc, code: int, query_weight: float, scratch) -> int | None:
        """Plain Sig-Filter kernel: ``acc[oid] += min(weight, query_weight)``
        over one *full* list, marking the touched oids in ``scratch``.

        Sound because single-scheme lists hold at most one posting per
        oid (signature elements are unique per object), so the fancy-
        indexed add never collides.  Returns the entry count, or ``None``
        on a directory miss.
        """
        row = self._row_of.get(code)
        if row is None:
            return None
        start = self._starts[row]
        end = self._starts[row + 1]
        weights = -self.neg_bounds[start:end]
        _np.minimum(weights, query_weight, out=weights)
        oids = self.oids[start:end]
        acc[oids] += weights
        scratch.heads.append(oids)
        return end - start

    def begin_union(self) -> CandidateScratch:
        """This thread's (lazily created) scratch, reset for a new round."""
        local = self._scratch
        scratch = getattr(local, "scratch", None)
        if scratch is None:
            scratch = local.scratch = CandidateScratch(rows_unique=self.rows_unique)
        scratch.heads.clear()
        return scratch

    # ------------------------------------------------------------------
    # Pickling (snapshots externalise the arrays)
    # ------------------------------------------------------------------

    def __getstate__(self):
        arrays = [self.codes, self.offsets, self.oids, self.neg_bounds, self.t_bounds]
        if _EXTERN_SINK is not None:
            packed = []
            for array in arrays:
                if array is None:
                    packed.append(None)
                else:
                    _EXTERN_SINK.append(array)
                    packed.append(_ExternArray(len(_EXTERN_SINK) - 1))
            arrays = packed
        return {"arrays": arrays, "rows_unique": self.rows_unique}

    def __setstate__(self, state) -> None:
        arrays = []
        for item in state["arrays"]:
            if isinstance(item, _ExternArray):
                if _EXTERN_SOURCE is None:
                    raise RuntimeError(
                        "index arrays were externalized to a snapshot "
                        "sidecar; load via repro.io.snapshot.load_engine"
                    )
                arrays.append(_EXTERN_SOURCE[item.index])
            else:
                arrays.append(item)
        self.__init__(*arrays, rows_unique=state["rows_unique"])


#: Shared empty probe result (read-only so a view cannot be mutated).
_EMPTY_OIDS = _np.empty(0, dtype=_np.int32)
_EMPTY_OIDS.setflags(write=False)
