"""Byte-accounting storage model for index sizes (Table 1).

The paper's indexes are disk-resident with 4 KB pages; it reports on-disk
sizes for the IR-tree and each signature index.  We run in memory, so we
reproduce the *sizes* with an explicit serialization model instead:

* a posting = 4-byte object id + one 4-byte float per threshold bound;
* a directory entry per inverted list = the bytes of the element its
  code stands for (UTF-8 for a token, 4 for a cell id or hash bucket,
  12 for a hierarchical ``(level, row, col)`` cell, their sum for a
  ``(token, cell)`` pair) + an 8-byte disk offset — the in-memory
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

from dataclasses import astuple, dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.index.inverted import InvertedIndex

PAGE_BYTES = 4096
OID_BYTES = 4
BOUND_BYTES = 4
OFFSET_BYTES = 8
#: Directory key bytes of a uniform-grid cell id or a hash bucket.
CELL_KEY_BYTES = 4
#: Directory key bytes of a hierarchical ``(level, row, col)`` cell.
HIER_CELL_KEY_BYTES = 12


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

    @classmethod
    def total(cls, reports: Iterable["IndexSizeReport"]) -> "IndexSizeReport":
        """Field-wise sum of several indexes' reports (at least one)."""
        return cls(*map(sum, zip(*map(astuple, reports))))

    @property
    def total_bytes(self) -> int:
        """Directory + paged postings — the number Table 1 compares."""
        return self.directory_bytes + self.page_bytes

    @property
    def total_mb(self) -> float:
        return self.total_bytes / (1024.0 * 1024.0)


def measure_index(
    index: InvertedIndex,
    *,
    bounds_per_posting: int,
    tokens: Sequence[str] | None = None,
    span: int = 1,
    cell_bytes: int = 0,
    paged: bool = False,
) -> IndexSizeReport:
    """Measure an inverted index under the storage model.

    Only the codes and row lengths are read.  The model matches what
    the index materialises — oid + bound columns per posting plus a key
    directory — so the measured bytes are the snapshot-sidecar payload
    shape.

    Args:
        index: The inverted index to measure.
        bounds_per_posting: 0 for plain lists (keyword-first baseline),
            1 for single-bound lists, 2 for hybrid dual-bound lists.
        tokens: The index's vocabulary when its elements carry a token:
            list ``code`` names token ``tokens[code // span]``.
        span: Codes per token.
        cell_bytes: Key bytes of the cell part of each element.
        paged: Round each list's payload up to whole 4 KB pages instead
            of packing lists end-to-end.
    """
    key_bytes = cell_bytes * len(index)
    if tokens is not None:
        sizes = np.array([len(token.encode("utf-8")) for token in tokens], dtype=np.int64)
        key_bytes += int(sizes[index.codes // span].sum())
    posting_size = OID_BYTES + bounds_per_posting * BOUND_BYTES
    raw = index.num_postings() * posting_size
    pages = raw
    if paged:
        payloads = index.list_lengths() * posting_size
        pages = int(((payloads + PAGE_BYTES - 1) // PAGE_BYTES).sum()) * PAGE_BYTES
    return IndexSizeReport(
        num_lists=len(index),
        num_postings=index.num_postings(),
        directory_bytes=key_bytes + len(index) * OFFSET_BYTES,
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
