"""Columnar (CSR) storage backend for inverted indexes.

The ``python`` backend keeps each posting list as its own pair of Python
lists and probes with ``bisect`` plus list slices — correct, but the
filter step then runs interpreter-bound exactly where the paper is
memory-bound.  :class:`CSRPostingStore` freezes *every* posting list of
an :class:`~repro.index.inverted.InvertedIndex` into one set of
contiguous parallel NumPy arrays in CSR layout:

* ``offsets[row] .. offsets[row + 1]`` delimits one list's postings;
* ``oids`` holds the object ids, ``neg_bounds`` the negated primary
  (threshold) bounds — negated so each row is *ascending* and a probe is
  one ``searchsorted``; ``t_bounds`` carries the second (textual) bound
  column for dual-bound hybrid lists;
* an element → row interning dict replaces the per-list directory.

Probe kernels return zero-copy views into the ``oids`` column, dual-bound
head filtering is a vectorised mask over the qualifying head, and
candidate-set unions run through a reusable :class:`CandidateScratch`
buffer (heads collected per query, one concatenate + dedup) instead of a
per-query Python set.  Row order
and within-row posting order are inherited from the frozen Python lists
(``(-bound, oid)``), so both backends retrieve identical oids in an
identical order and report bit-identical probe statistics.

The module also owns the array-externalisation hooks snapshot format 3
uses: inside :func:`externalize_arrays` a pickled store replaces its
arrays with :class:`_ExternArray` markers and appends the arrays to the
sink (they are then written to an ``.npz`` sidecar); inside
:func:`resolve_arrays` unpickling resolves the markers from the loaded
(optionally memory-mapped) sidecar.  Outside those contexts stores
pickle self-contained, arrays inline.

Concurrency: the probe arrays are read-only after freezing, and all
mutable probe state (:class:`CandidateScratch`) is thread-local per
store, so concurrent queries against one engine stay correct — matching
the python backend — while each thread reuses its own buffers query
after query.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass
from typing import Dict, Hashable, Iterator, List, Sequence, Tuple

import numpy as _np

from repro.core.errors import ConfigurationError
from repro.index.postings import DualBoundPostingList, PostingList

#: Index storage backends an :meth:`InvertedIndex.freeze` accepts.
BACKENDS = ("python", "columnar")


def default_backend() -> str:
    """The backend ``freeze(backend=None)`` resolves to."""
    return "columnar"


def resolve_backend(backend: str | None) -> str:
    """Validate a backend name; ``None`` means the default.

    Raises:
        ConfigurationError: Unknown name.
    """
    if backend is None:
        return default_backend()
    if backend not in BACKENDS:
        valid = ", ".join(BACKENDS)
        raise ConfigurationError(
            f"unknown index backend {backend!r}; valid backends: {valid}"
        )
    return backend


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
    """While active, pickling a store appends its arrays to ``sink``."""
    global _EXTERN_SINK
    previous = _EXTERN_SINK
    _EXTERN_SINK = sink
    try:
        yield sink
    finally:
        _EXTERN_SINK = previous


@contextlib.contextmanager
def resolve_arrays(source: Sequence):
    """While active, unpickling a store resolves extern markers from ``source``."""
    global _EXTERN_SOURCE
    previous = _EXTERN_SOURCE
    _EXTERN_SOURCE = source
    try:
        yield
    finally:
        _EXTERN_SOURCE = previous


def directory_rows(codes):
    """Number posting lists in order of first appearance.

    A build that stages postings one by one creates each list the first
    time its element is posted to, so the directory's order is the order
    of first appearance.  Given one integer element code per posting, in
    that staging order, this returns the same numbering without staging.

    Returns:
        ``(rows, first)`` — the row of every posting, and per row the
        index of its first posting (``codes[first]`` are the rows' codes
        in directory order).
    """
    _, first, inverse = _np.unique(codes, return_index=True, return_inverse=True)
    order = _np.argsort(first)
    rank = _np.empty(len(order), dtype=_np.int64)
    rank[order] = _np.arange(len(order))
    return rank[inverse], first[order]


class CandidateScratch:
    """Reusable candidate-union buffer: collect heads, dedup once.

    ``add`` only appends zero-copy head views (a Python ``list.append``,
    no array work per probe); ``result`` concatenates every head into one
    reusable buffer and deduplicates with a single ``np.unique``.  Doing
    the union once per query instead of once per probed list is what
    keeps short-head probes competitive with the python backend's
    ``set.update`` while long heads get full vectorisation.  One instance
    serves every query against its store; the buffer grows to the
    high-water total head length and is then reused round after round.
    """

    __slots__ = ("heads", "buffer", "acc", "rows_unique")

    def __init__(self, *, rows_unique: bool = False) -> None:
        self.heads: List = []
        self.buffer = _np.empty(0, dtype=_np.int32)
        #: Similarity accumulator for the plain Sig-Filter kernel; zeroed
        #: lazily, then kept zeroed by resetting only the touched oids.
        self.acc = None
        #: The owning store guarantees no single head repeats an oid, so
        #: a one-head round needs no dedup at all (cross-head duplicates
        #: are the only other source, and one head has no "cross").
        self.rows_unique = rows_unique

    def begin(self) -> "CandidateScratch":
        """Start a new union round (invalidates the previous result)."""
        self.heads.clear()
        return self

    def add(self, oids) -> None:
        """Union one head of oids into the round (duplicates allowed)."""
        if len(oids):
            self.heads.append(oids)

    def result(self):
        """The deduplicated union as an owned array."""
        heads = self.heads
        if not heads:
            return _EMPTY_OIDS
        if len(heads) == 1 and self.rows_unique:
            out = heads[0].copy()  # heads are views into the store
            heads.clear()
            return out
        total = sum(map(len, heads))
        if len(self.buffer) < total:
            self.buffer = _np.empty(total, dtype=_np.int32)
        gathered = self.buffer[:total]
        if len(heads) == 1:
            # Copy even a single head: probe heads are views into the
            # store's oids column, and the dedup sorts in place.
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


class CSRPostingStore:
    """All posting lists of one inverted index, frozen column-wise.

    Build via :meth:`from_lists` over already-frozen Python posting
    lists, so the ``(-bound, oid)`` ordering — and therefore every probe
    answer and statistic — is inherited rather than re-derived; or via
    :meth:`from_postings` over flat posting columns, which sorts every
    row into that same order in one ``lexsort``.

    Attributes:
        rows: element → row interning table (insertion order preserved).
        offsets: ``int64[num_rows + 1]`` CSR row boundaries.
        oids: ``int32[num_postings]`` object ids, row-major — the 4-byte
            oid of the storage model (Table 1); also what keeps the
            candidate sort fast.
        neg_bounds: ``float64[num_postings]`` negated primary bounds
            (ascending within each row — what ``searchsorted`` wants).
        t_bounds: ``float64[num_postings]`` textual bounds for dual-bound
            stores; ``None`` for single-bound stores.
        rows_unique: No row repeats an oid — true for every store except
            bucketed hybrids, where two colliding ``(token, cell)`` pairs
            of one object land in the same list.
    """

    __slots__ = (
        "rows", "offsets", "oids", "neg_bounds", "t_bounds", "rows_unique",
        "_starts", "_scratch",
    )

    def __init__(
        self, rows, offsets, oids, neg_bounds, t_bounds=None, *, rows_unique=False
    ) -> None:
        self.rows: Dict[Hashable, int] = rows
        self.offsets = offsets
        self.oids = oids
        self.neg_bounds = neg_bounds
        self.t_bounds = t_bounds
        self.rows_unique = rows_unique
        # Probe results are zero-copy views into these columns; freeze
        # them so a caller mutating a returned head (e.g. sorting it)
        # cannot silently corrupt the index.  Internal kernels copy
        # before mutating, so this costs nothing.
        for column in (offsets, oids, neg_bounds, t_bounds):
            if column is not None:
                column.setflags(write=False)
        # Row boundaries as plain ints: probes slice with them constantly,
        # and Python-int slicing beats NumPy-scalar indexing.  Derived,
        # never pickled.
        self._starts: List[int] = offsets.tolist()
        # One scratch per thread: concurrent queries against one store
        # (e.g. user threads sharing an engine) must not share union
        # state, while each thread still reuses its buffers query after
        # query.
        self._scratch = threading.local()

    @classmethod
    def from_lists(
        cls,
        lists: "Dict[Hashable, PostingList | DualBoundPostingList]",
        *,
        dual: bool,
    ) -> "CSRPostingStore":
        """Concatenate frozen Python posting lists into CSR columns."""
        rows = {element: row for row, element in enumerate(lists)}
        offsets = _np.zeros(len(lists) + 1, dtype=_np.int64)
        _np.cumsum(
            _np.fromiter((len(plist) for plist in lists.values()), _np.int64, len(lists)),
            out=offsets[1:],
        )
        total = int(offsets[-1])
        oids = _np.empty(total, dtype=_np.int32)
        neg_bounds = _np.empty(total, dtype=_np.float64)
        t_bounds = _np.empty(total, dtype=_np.float64) if dual else None
        rows_unique = True
        for row, plist in enumerate(lists.values()):
            start, end = int(offsets[row]), int(offsets[row + 1])
            if dual:
                plist_oids, plist_neg_r, plist_t = plist.columns()
                t_bounds[start:end] = plist_t
            else:
                plist_oids, plist_neg_r = plist.columns()
            oids[start:end] = plist_oids
            neg_bounds[start:end] = plist_neg_r
            if rows_unique and len(set(plist_oids)) != len(plist_oids):
                rows_unique = False
        return cls(rows, offsets, oids, neg_bounds, t_bounds, rows_unique=rows_unique)

    @classmethod
    def from_postings(
        cls, elements: Sequence[Hashable], rows, oids, bounds, t_bounds=None
    ) -> "CSRPostingStore":
        """Build from flat posting columns (the bulk-load path).

        Args:
            elements: Directory keys, one per row, in directory order.
            rows: Row of each posting, in ``[0, len(elements))``; every
                row must own at least one posting.
            oids: Object id of each posting.
            bounds: Primary (threshold) bound of each posting.
            t_bounds: Second (textual) bound column for dual-bound stores.

        Each row ends up in ``(-bound, oid)`` order, postings that tie on
        both keeping their arrival order — exactly what staging them one
        by one and freezing produces (a stable sort on the same key).
        """
        rows = _np.asarray(rows, dtype=_np.int64)
        oids = _np.asarray(oids, dtype=_np.int32)
        neg_bounds = -_np.asarray(bounds, dtype=_np.float64)
        lengths = _np.bincount(rows, minlength=len(elements))
        if len(lengths) != len(elements) or (len(lengths) and lengths.min() == 0):
            raise ValueError("every directory row needs at least one posting, and no others")
        order = _np.lexsort((oids, neg_bounds, rows))
        offsets = _np.zeros(len(elements) + 1, dtype=_np.int64)
        _np.cumsum(lengths, out=offsets[1:])
        # A row repeats an oid iff some (row, oid) pair occurs twice.
        pairs = rows * (int(oids.max()) + 1 if len(oids) else 1) + oids
        pairs.sort()
        rows_unique = not bool((pairs[1:] == pairs[:-1]).any())
        return cls(
            {element: row for row, element in enumerate(elements)},
            offsets,
            oids[order],
            neg_bounds[order],
            None if t_bounds is None else _np.asarray(t_bounds, dtype=_np.float64)[order],
            rows_unique=rows_unique,
        )

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------

    @property
    def dual(self) -> bool:
        return self.t_bounds is not None

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def num_postings(self) -> int:
        return int(self.offsets[-1])

    def row_length(self, row: int) -> int:
        return self._starts[row + 1] - self._starts[row]

    def nbytes(self) -> int:
        """Bytes held by the CSR columns (the mmap-able payload)."""
        total = self.offsets.nbytes + self.oids.nbytes + self.neg_bounds.nbytes
        if self.t_bounds is not None:
            total += self.t_bounds.nbytes
        return total

    # ------------------------------------------------------------------
    # Probe kernels
    # ------------------------------------------------------------------

    def _cut(self, row: int, min_bound: float) -> Tuple[int, int]:
        """(start, cut): the row's threshold-qualifying head extent."""
        start = self._starts[row]
        end = self._starts[row + 1]
        # ndarray.searchsorted (not np.searchsorted): the module-level
        # wrapper's dispatch costs microseconds per probe, which at short
        # heads is the whole probe budget.
        cut = start + int(self.neg_bounds[start:end].searchsorted(-min_bound, side="right"))
        return start, cut

    def probe(self, element, min_bound: float):
        """Single-bound probe: zero-copy head view (empty on a miss)."""
        row = self.rows.get(element)
        if row is None:
            return _EMPTY_OIDS
        starts = self._starts
        start = starts[row]
        cut = start + int(
            self.neg_bounds[start : starts[row + 1]].searchsorted(-min_bound, side="right")
        )
        return self.oids[start:cut]

    def probe_dual(self, element, min_r_bound: float, min_t_bound: float):
        """Dual-bound probe: ``(qualifying oids, scanned)`` or ``None``.

        ``None`` marks a directory miss (the element has no list), which
        the hybrid filters do not count as a probe; ``scanned`` is the
        spatial-head length — the honest probe cost — and the returned
        oids are the head entries whose textual bound also qualifies.
        """
        row = self.rows.get(element)
        if row is None:
            return None
        starts = self._starts
        start = starts[row]
        # int(): searchsorted yields a NumPy scalar, which must not leak
        # into the scanned count (stats stay plain ints on every backend).
        cut = start + int(
            self.neg_bounds[start : starts[row + 1]].searchsorted(-min_r_bound, side="right")
        )
        if cut == start:
            return _EMPTY_OIDS, 0
        head = self.oids[start:cut]
        return head[self.t_bounds[start:cut] >= min_t_bound], cut - start

    def accumulate(self, acc, element, query_weight: float, scratch) -> int | None:
        """Plain Sig-Filter kernel: ``acc[oid] += min(weight, query_weight)``
        over one *full* list, marking the touched oids in ``scratch``.

        Sound because single-scheme lists hold at most one posting per
        oid (signature elements are unique per object), so the fancy-
        indexed add never collides.  Returns the entry count, or ``None``
        on a directory miss.
        """
        row = self.rows.get(element)
        if row is None:
            return None
        start = self._starts[row]
        end = self._starts[row + 1]
        weights = -self.neg_bounds[start:end]
        _np.minimum(weights, query_weight, out=weights)
        oids = self.oids[start:end]
        acc[oids] += weights
        scratch.add(oids)
        return end - start

    def begin_union(self) -> CandidateScratch:
        """This thread's (lazily created) scratch, reset for a new round."""
        local = self._scratch
        scratch = getattr(local, "scratch", None)
        if scratch is None:
            scratch = local.scratch = CandidateScratch(rows_unique=self.rows_unique)
        return scratch.begin()

    # ------------------------------------------------------------------
    # Posting-list views (directory compatibility)
    # ------------------------------------------------------------------

    def view(self, element) -> "ColumnarListView | None":
        row = self.rows.get(element)
        if row is None:
            return None
        return ColumnarListView(self, row)

    def items(self) -> Iterator[Tuple[Hashable, "ColumnarListView"]]:
        for element, row in self.rows.items():
            yield element, ColumnarListView(self, row)

    # ------------------------------------------------------------------
    # Pickling (snapshot format 3 externalises the arrays)
    # ------------------------------------------------------------------

    def __getstate__(self):
        arrays = [self.offsets, self.oids, self.neg_bounds, self.t_bounds]
        if _EXTERN_SINK is not None:
            packed = []
            for array in arrays:
                if array is None:
                    packed.append(None)
                else:
                    _EXTERN_SINK.append(array)
                    packed.append(_ExternArray(len(_EXTERN_SINK) - 1))
            arrays = packed
        return {"rows": self.rows, "arrays": arrays, "rows_unique": self.rows_unique}

    def __setstate__(self, state) -> None:
        self.rows = state["rows"]
        self.rows_unique = state["rows_unique"]
        arrays = []
        for item in state["arrays"]:
            if isinstance(item, _ExternArray):
                if _EXTERN_SOURCE is None:
                    raise RuntimeError(
                        "columnar arrays were externalized to a snapshot "
                        "sidecar; load via repro.io.snapshot.load_engine"
                    )
                arrays.append(_EXTERN_SOURCE[item.index])
            else:
                arrays.append(item)
        self.offsets, self.oids, self.neg_bounds, self.t_bounds = arrays
        for column in arrays:
            if column is not None:
                column.setflags(write=False)
        self._starts = self.offsets.tolist()
        self._scratch = threading.local()


class ColumnarListView:
    """One CSR row exposed with the Python posting-list probe surface.

    Duck-compatible with :class:`PostingList` (``retrieve(min_bound)``)
    or :class:`DualBoundPostingList` (``retrieve(min_r, min_t)``)
    depending on the store kind, so directory users — the I/O cost
    model, :func:`~repro.index.storage.measure_index`, index statistics —
    work unchanged over either backend.
    """

    __slots__ = ("store", "row")

    def __init__(self, store: CSRPostingStore, row: int) -> None:
        self.store = store
        self.row = row

    def retrieve(self, min_bound: float, min_t_bound: float | None = None):
        store = self.store
        if store.dual:
            if min_t_bound is None:
                raise TypeError("dual-bound lists need (min_r_bound, min_t_bound)")
            start, cut = store._cut(self.row, min_bound)
            head = store.oids[start:cut]
            return head[store.t_bounds[start:cut] >= min_t_bound], cut - start
        if min_t_bound is not None:
            raise TypeError("single-bound lists take one bound")
        start, cut = store._cut(self.row, min_bound)
        return store.oids[start:cut]

    def __len__(self) -> int:
        return self.store.row_length(self.row)

    def __iter__(self):
        store = self.store
        start = int(store.offsets[self.row])
        end = int(store.offsets[self.row + 1])
        oids = store.oids[start:end].tolist()
        bounds = (-store.neg_bounds[start:end]).tolist()
        if store.dual:
            t_bounds = store.t_bounds[start:end].tolist()
            return iter(zip(oids, bounds, t_bounds))
        return iter(zip(oids, bounds))


#: Shared empty probe result (read-only so a view cannot be mutated).
_EMPTY_OIDS = _np.empty(0, dtype=_np.int32)
_EMPTY_OIDS.setflags(write=False)
