"""Inverted indexes over signature elements.

:class:`InvertedIndex` maps a signature element (token, cell id, or
hybrid key) to its posting list.  It is generic over the posting-list
class so the single-bound and dual-bound variants share construction,
freezing, statistics and size accounting.

Storage is pluggable at :meth:`freeze` time:

* ``backend="python"`` keeps the per-element
  :class:`~repro.index.postings.PostingList` objects — the reference
  oracle the equivalence tests compare against;
* ``backend="columnar"`` (the default)
  consolidates every list into one
  :class:`~repro.index.columnar.CSRPostingStore` of contiguous parallel
  arrays and drops the Python lists; probes become vectorised kernels
  returning zero-copy head views.

An index is filled either posting by posting (:meth:`list_for` +
``add``, then :meth:`freeze`) or in one array-native step
(:meth:`bulk_load`); the frozen result is the same.

Both backends answer the same probe API (:meth:`probe`, :meth:`probe_dual`,
:meth:`get`, :meth:`items`) with identical oids in identical order, and
:meth:`union_heads` — the one probe loop every signature filter's
``candidates`` runs — is the only place that knows which backend it is
on.
"""

from __future__ import annotations

from typing import Collection, Dict, Generic, Hashable, Iterator, Sequence, Tuple, Type, TypeVar

from repro.core.stats import SearchStats
from repro.index.columnar import CSRPostingStore, resolve_backend
from repro.index.postings import DualBoundPostingList, PostingList

Key = TypeVar("Key", bound=Hashable)
PList = TypeVar("PList", PostingList, DualBoundPostingList)


class InvertedIndex(Generic[Key, PList]):
    """element -> posting list, with build/freeze lifecycle.

    Args:
        list_class: :class:`PostingList` (single bound) or
            :class:`DualBoundPostingList` (hybrid).

    Examples:
        >>> index = InvertedIndex(PostingList)
        >>> index.list_for("tea").add(0, bound=1.5)
        >>> index.freeze(backend="python")
        >>> list(index.probe("tea", 1.0))
        [0]
    """

    __slots__ = ("_lists", "_list_class", "_frozen", "store", "backend")

    def __init__(self, list_class: Type[PList] = PostingList) -> None:
        self._lists: Dict[Key, PList] = {}
        self._list_class = list_class
        self._frozen = False
        #: The columnar store after a columnar freeze; ``None`` otherwise.
        self.store: CSRPostingStore | None = None
        self.backend = "python"

    # ------------------------------------------------------------------
    # Build phase
    # ------------------------------------------------------------------

    def list_for(self, element: Key) -> PList:
        """The (created-on-demand) posting list of ``element``."""
        plist = self._lists.get(element)
        if plist is None:
            if self._frozen:
                raise RuntimeError("InvertedIndex is frozen; cannot create new lists")
            plist = self._list_class()
            self._lists[element] = plist
        return plist

    def freeze(self, backend: str | None = None) -> None:
        """Freeze every posting list (sorts by bound); idempotent.

        Args:
            backend: ``"python"``, ``"columnar"``, or ``None`` for the
                default (columnar).  Columnar freezing consolidates all
                postings into one :class:`CSRPostingStore` and releases
                the Python lists.

        Raises:
            RuntimeError: Re-freezing with a *different* explicit backend
                — the first freeze fixes the storage layout; re-freezing
                with the same (or no) backend is a no-op.
        """
        if self._frozen:
            if backend is not None and backend != self.backend:
                raise RuntimeError(
                    f"index already frozen with backend {self.backend!r}; "
                    f"cannot re-freeze as {backend!r}"
                )
            return
        # Validate before mutating: a bad backend name must leave the
        # index un-frozen so the caller can retry with a valid one.
        resolved = resolve_backend(backend)
        for plist in self._lists.values():
            plist.freeze()
        self._frozen = True
        self.backend = resolved
        if self.backend == "columnar":
            self.store = CSRPostingStore.from_lists(
                self._lists, dual=self._list_class is DualBoundPostingList
            )
            self._lists = {}

    def bulk_load(
        self,
        elements: Sequence[Key],
        rows,
        oids,
        bounds,
        t_bounds=None,
        *,
        backend: str | None = None,
    ) -> None:
        """Load every posting at once and freeze — the array-native twin
        of ``list_for(element).add(...)`` per posting plus :meth:`freeze`,
        and indistinguishable from it afterwards on either backend.

        Args:
            elements: Directory keys, one per posting list, in the order
                the lists would have been created.
            rows: Index into ``elements`` of each posting's list.
            oids: Object id of each posting.
            bounds: Threshold bound of each posting (the spatial bound of
                a dual-bound index).
            t_bounds: Textual bound of each posting; required exactly
                when the index holds :class:`DualBoundPostingList`.
            backend: As for :meth:`freeze`.

        Postings may arrive in any order, except that postings of one
        list tying on ``(bound, oid)`` keep their arrival order, as
        staged postings do.

        Raises:
            RuntimeError: If the index is frozen or already holds lists.
        """
        if self._frozen or self._lists:
            raise RuntimeError("bulk_load needs an empty, un-frozen index")
        dual = self._list_class is DualBoundPostingList
        if dual != (t_bounds is not None):
            raise ValueError("t_bounds goes with dual-bound posting lists, and only with them")
        resolved = resolve_backend(backend)
        store = CSRPostingStore.from_postings(elements, rows, oids, bounds, t_bounds)
        if resolved == "columnar":
            self.store = store
        else:
            # The python oracle keeps one list object per element; cut
            # the sorted columns at the row boundaries.
            columns = [store.oids.tolist(), store.neg_bounds.tolist()]
            if dual:
                columns.append(store.t_bounds.tolist())
            cuts = store.offsets.tolist()
            self._lists = {
                element: self._list_class.from_columns(
                    *(column[cuts[row] : cuts[row + 1]] for column in columns)
                )
                for element, row in store.rows.items()
            }
        self._frozen = True
        self.backend = resolved

    # ------------------------------------------------------------------
    # Probe phase
    # ------------------------------------------------------------------

    def get(self, element: Key):
        """The element's posting list (or columnar row view), else None."""
        if self.store is not None:
            return self.store.view(element)
        return self._lists.get(element)

    def probe(self, element: Key, min_bound: float):
        """Single-bound probe: qualifying oids of ``element``'s list.

        Returns a backend-native sequence — a ``list`` (python) or a
        zero-copy int64 view (columnar) — that is *empty* on a directory
        miss, never a different type.
        """
        if self.store is not None:
            return self.store.probe(element, min_bound)
        plist = self._lists.get(element)
        if plist is None:
            return []
        return plist.retrieve(min_bound)

    def probe_dual(self, element: Key, min_r_bound: float, min_t_bound: float):
        """Dual-bound probe: ``(qualifying oids, scanned)``, or ``None``
        on a directory miss (which filters do not count as a probe)."""
        if self.store is not None:
            return self.store.probe_dual(element, min_r_bound, min_t_bound)
        plist = self._lists.get(element)
        if plist is None:
            return None
        return plist.retrieve(min_r_bound, min_t_bound)

    def union_heads(
        self,
        elements: Sequence[Key],
        bound: float,
        t_bound: float | None,
        stats: SearchStats,
    ) -> Collection[int]:
        """The filter step of Sig-Filter+ and Hybrid-Sig-Filter+: open each
        element's list, take the head its bound(s) qualify, union the heads.

        Args:
            elements: The lists to open, in probe order.
            bound: Primary threshold (the spatial one of a dual-bound index).
            t_bound: Textual threshold of a dual-bound index, else ``None``.
            stats: Receives the probe accounting.

        A single-bound probe of an element with no list still counts as a
        probe (the directory lookup happens either way) and retrieves an
        empty head; a dual-bound one does not — a hybrid key nothing was
        posted to is no list at all.  ``entries_retrieved`` is the head
        the primary bound cuts, ``entries_matched`` what survives the
        textual bound too.  Both rules hold on either backend, so the
        statistics are backend-independent by construction.

        Returns:
            The union — a set (python) or a sorted, deduplicated array
            from this thread's scratch buffer (columnar).
        """
        store = self.store
        if store is not None:
            scratch = store.begin_union()
            add, probe, probe_dual = scratch.add, store.probe, store.probe_dual
        else:
            out: set[int] = set()
            add, probe, probe_dual = out.update, self.probe, self.probe_dual
        lists = retrieved = matched = 0
        for element in elements:
            if t_bound is None:
                head = probe(element, bound)
                scanned = len(head)
            else:
                result = probe_dual(element, bound, t_bound)
                if result is None:
                    continue
                head, scanned = result
            lists += 1
            retrieved += scanned
            matched += len(head)
            add(head)
        stats.lists_probed += lists
        stats.entries_retrieved += retrieved
        stats.entries_matched += matched
        return scratch.result() if store is not None else out

    def __contains__(self, element: Key) -> bool:
        if self.store is not None:
            return element in self.store.rows
        return element in self._lists

    def __len__(self) -> int:
        if self.store is not None:
            return self.store.num_rows
        return len(self._lists)

    def items(self) -> Iterator[Tuple[Key, PList]]:
        if self.store is not None:
            return self.store.items()
        return iter(self._lists.items())

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def num_postings(self) -> int:
        if self.store is not None:
            return self.store.num_postings
        return sum(len(plist) for plist in self._lists.values())

    def list_length(self, element: Key) -> int:
        if self.store is not None:
            row = self.store.rows.get(element)
            return self.store.row_length(row) if row is not None else 0
        plist = self._lists.get(element)
        return len(plist) if plist is not None else 0

    def average_list_length(self) -> float:
        """Mean postings per non-empty list (0.0 for an empty index).

        O(1) on the columnar backend, O(lists) on the python oracle; the
        grid and hash-hybrid filters price a probe with it
        (``estimate_work``) without touching postings.
        """
        num_lists = len(self)
        if num_lists == 0:
            return 0.0
        return self.num_postings() / num_lists
