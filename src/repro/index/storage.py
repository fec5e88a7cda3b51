"""Byte-accounting storage model for index sizes (Table 1).

The paper's indexes are disk-resident with 4 KB pages; it reports on-disk
sizes for the IR-tree and each signature index.  We run in memory, so we
reproduce the *sizes* with an explicit serialization model instead:

* a posting = 4-byte object id + one 4-byte float per threshold bound;
* a directory entry per inverted list = key bytes (UTF-8 for tokens,
  4/12 bytes for cell keys) + an 8-byte disk offset — the in-memory
  element → offset map the paper keeps (19 MB for Twitter);
* lists are *packed* end-to-end by default (``paged=False``); pass
  ``paged=True`` to round every list up to whole 4 KB pages instead.
  Packing is the honest default at reduced corpus scale: with short
  lists, per-list page padding would measure the page size rather than
  the index, inverting the ratios Table 1 reports at 1M objects.

The model is deliberately simple and identical across index types, so the
*ratios* in Table 1 (TokenInv ≪ IR-tree; GridInv tiny; HashInv largest;
HierarchicalInv between) are driven by the same structural causes as the
paper's numbers: posting counts and per-posting payloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.index.inverted import InvertedIndex

PAGE_BYTES = 4096
OID_BYTES = 4
BOUND_BYTES = 4
OFFSET_BYTES = 8


@dataclass(frozen=True, slots=True)
class IndexSizeReport:
    """Sizes in bytes of the parts of a serialized inverted index.

    Attributes:
        num_lists: Inverted lists (distinct signature elements).
        num_postings: Total postings across lists.
        directory_bytes: In-memory element → offset directory.
        posting_bytes: Raw posting payloads.
        page_bytes: Posting payloads rounded up to whole 4 KB pages.
    """

    num_lists: int
    num_postings: int
    directory_bytes: int
    posting_bytes: int
    page_bytes: int

    @property
    def total_bytes(self) -> int:
        """Directory + paged postings — the number Table 1 compares."""
        return self.directory_bytes + self.page_bytes

    @property
    def total_mb(self) -> float:
        return self.total_bytes / (1024.0 * 1024.0)


def key_bytes(key: Hashable) -> int:
    """Serialized size of one directory key."""
    if isinstance(key, str):
        return len(key.encode("utf-8"))
    if isinstance(key, tuple):
        return sum(key_bytes(part) for part in key)
    # ints (cell ids, hash buckets) and anything else fixed-width.
    return 4


def measure_index(
    index: InvertedIndex,
    *,
    bounds_per_posting: int,
    paged: bool = False,
) -> IndexSizeReport:
    """Measure an inverted index under the storage model.

    Only the directory keys and the row lengths are read.  The
    serialization model matches what the index materialises — oid + bound
    columns per posting plus a key directory — so the measured bytes are
    the snapshot-sidecar payload shape.

    Args:
        index: The inverted index to measure.
        bounds_per_posting: 0 for plain lists (keyword-first baseline),
            1 for single-bound lists, 2 for hybrid dual-bound lists.
        paged: Round each list's payload up to whole 4 KB pages instead
            of packing lists end-to-end.
    """
    posting_size = OID_BYTES + bounds_per_posting * BOUND_BYTES
    raw = index.num_postings() * posting_size
    pages = raw
    if paged:
        payloads = index.list_lengths() * posting_size
        pages = int(((payloads + PAGE_BYTES - 1) // PAGE_BYTES).sum()) * PAGE_BYTES
    return IndexSizeReport(
        num_lists=len(index),
        num_postings=index.num_postings(),
        directory_bytes=sum(map(key_bytes, index.rows)) + len(index) * OFFSET_BYTES,
        posting_bytes=raw,
        page_bytes=pages,
    )


def rtree_size_bytes(node_count: int, entry_count: int, tokens_indexed: int = 0) -> int:
    """Size model for (IR-)R-trees.

    Every node occupies one 4 KB page (the paper's page size).  An IR-tree
    additionally stores an inverted file per node; ``tokens_indexed`` is
    the total number of (token → child) pairs across all node inverted
    files, each costing an average token key plus a child pointer —
    this is what makes the IR-tree's footprint balloon to H× the data
    (Section 2.3's space-complexity complaint).
    """
    node_pages = node_count * PAGE_BYTES
    token_bytes = tokens_indexed * (8 + OFFSET_BYTES)
    return node_pages + token_bytes
