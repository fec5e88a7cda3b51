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
once per query (one concatenate, one sort + neighbour-mask dedup)
instead of through a Python set.
:meth:`probe` is its single-list form, for the one caller that wants
one head (the keyword-first baseline), and
:meth:`~InvertedIndex.union_heads_batch` its batch form: the same cuts
and accounting for many single-bound queries, their heads gathered and
deduplicated as one column.

The per-list reference — staged Python posting lists sorted at freeze,
probed with ``bisect`` — lives in ``tests/reference_postings.py``; the
differential tests build both ways and require the same index posting
for posting and the same heads and statistics probe for probe.

The module also owns the array-externalisation hooks snapshots use:
inside :func:`externalize_arrays` a pickled index — or verifier, both
through :func:`pack_arrays` — replaces its arrays with
:class:`_ExternArray` markers and appends the arrays to the sink (they
are then written to an ``.npz`` sidecar); inside :func:`resolve_arrays`
unpickling resolves the markers from the loaded (optionally
memory-mapped) sidecar (:func:`unpack_arrays`).  Outside those contexts
indexes and verifiers pickle self-contained, arrays inline.

Concurrency: the columns are read-only once loaded and a probe keeps
no state on the index, so concurrent queries against one engine need
no coordination.
"""

from __future__ import annotations

import contextlib
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
    """While active, pickling an index or a verifier appends its arrays
    to ``sink``."""
    global _EXTERN_SINK
    previous = _EXTERN_SINK
    _EXTERN_SINK = sink
    try:
        yield sink
    finally:
        _EXTERN_SINK = previous


@contextlib.contextmanager
def resolve_arrays(source: Sequence):
    """While active, unpickling an index or a verifier resolves extern
    markers from ``source``."""
    global _EXTERN_SOURCE
    previous = _EXTERN_SOURCE
    _EXTERN_SOURCE = source
    try:
        yield
    finally:
        _EXTERN_SOURCE = previous


def pack_arrays(arrays: Sequence) -> List:
    """``arrays`` as a ``__getstate__`` holds them: inside
    :func:`externalize_arrays` each array is appended to the sink and
    stands as an :class:`_ExternArray` marker; outside it, as itself.
    ``None`` stays ``None``."""
    if _EXTERN_SINK is None:
        return list(arrays)
    packed: List = []
    for array in arrays:
        if array is not None:
            _EXTERN_SINK.append(array)
            array = _ExternArray(len(_EXTERN_SINK) - 1)
        packed.append(array)
    return packed


def unpack_arrays(items: Sequence) -> List:
    """What :func:`pack_arrays` packed, each marker resolved from the
    loaded sidecar (:func:`resolve_arrays`)."""
    if _EXTERN_SOURCE is None and any(isinstance(item, _ExternArray) for item in items):
        raise RuntimeError(
            "arrays were externalized to a snapshot sidecar; load via "
            "repro.io.snapshot.load_engine"
        )
    return [_EXTERN_SOURCE[i.index] if isinstance(i, _ExternArray) else i for i in items]


def _drop_repeats(keys):
    """``keys`` (sorted) without repeats: a neighbour mask, not
    ``np.unique`` — NumPy's hash-based unique kernel is an order of
    magnitude slower at candidate-set sizes."""
    if len(keys) < 2:
        return keys
    keep = _np.empty(len(keys), dtype=bool)
    keep[0] = True
    _np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


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
        "_row_of", "_starts",
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
        heads: List = []
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
        if not heads:
            return _EMPTY_OIDS
        if len(heads) == 1 and self.rows_unique:
            # One head of a row without repeats needs no dedup; copy it
            # all the same, as heads are views into the index.
            return heads[0].copy()
        # concatenate copies even a single head, so the sort is in place
        # on an array the caller owns.
        gathered = _np.concatenate(heads)
        gathered.sort()
        return _drop_repeats(gathered)

    def union_heads_batch(self, probes: Sequence[tuple], stats: Sequence[SearchStats]):
        """:meth:`union_heads` of many single-bound queries in one pass.

        Args:
            probes: One ``(codes, bound, None)`` per query.
            stats: One :class:`SearchStats` per query, receiving exactly
                the accounting :meth:`union_heads` gives that query.

        Each ``(query, code)`` pair whose list exists is cut on its
        query's bound by the probe loop's own ``searchsorted(side=
        "right")``; what the batch shares is everything after the cut:
        every head is gathered with one index and deduplicated as one
        sorted ``query << 32 | oid`` key column, where :meth:`union_heads`
        pays a union per query.

        Returns:
            ``(queries, oids)``: parallel int64 arrays of the (query
            position, candidate oid) pairs, sorted by query, then oid.
        """
        row_of = self._row_of.get
        starts, neg_bounds = self._starts, self.neg_bounds
        head_queries: List[int] = []
        head_starts: List[int] = []
        head_lengths: List[int] = []
        for position, (codes, bound, _) in enumerate(probes):
            neg_bound = -bound
            retrieved = 0
            for code in codes:
                row = row_of(code)
                if row is None:
                    continue
                start = starts[row]
                # int(): a NumPy scalar must not leak into the statistics.
                scanned = int(
                    neg_bounds[start : starts[row + 1]].searchsorted(neg_bound, side="right")
                )
                if scanned:
                    retrieved += scanned
                    head_queries.append(position)
                    head_starts.append(start)
                    head_lengths.append(scanned)
            entry = stats[position]
            entry.lists_probed += len(codes)
            entry.entries_retrieved += retrieved
            entry.entries_matched += retrieved
        lengths = _np.array(head_lengths, dtype=_np.int64)
        # Entry j of the gathered run sits j - (its head's run start)
        # entries into that head.
        offsets = _np.array(head_starts, dtype=_np.int64) - _np.cumsum(lengths) + lengths
        keys = _np.repeat(_np.array(head_queries, dtype=_np.int64) << 32, lengths)
        keys |= self.oids.take(_np.arange(len(keys)) + _np.repeat(offsets, lengths))
        keys.sort()
        keys = _drop_repeats(keys)
        return keys >> 32, keys & 0xFFFFFFFF

    # ------------------------------------------------------------------
    # Pickling (snapshots externalise the arrays)
    # ------------------------------------------------------------------

    def __getstate__(self):
        arrays = [self.codes, self.offsets, self.oids, self.neg_bounds, self.t_bounds]
        return {"arrays": pack_arrays(arrays), "rows_unique": self.rows_unique}

    def __setstate__(self, state) -> None:
        self.__init__(*unpack_arrays(state["arrays"]), rows_unique=state["rows_unique"])


#: Shared empty probe result (read-only so a view cannot be mutated).
_EMPTY_OIDS = _np.empty(0, dtype=_np.int32)
_EMPTY_OIDS.setflags(write=False)
