"""``HybridFilter`` — hash-based hybrid signatures (Section 5.1).

An object's hybrid signature is the cross product of its textual and
spatial signatures: every ``(token, cell)`` pair, optionally hashed into a
bounded number of buckets to cap the inverted-list directory.  Each
posting carries *both* threshold bounds — the textual Lemma 3 bound of
the token and the spatial Lemma 3 bound of the cell — and is pruned when
either falls below its derived threshold (``Hybrid-Sig-Filter+``,
Figure 8).

A query probes only the cross product of its two signature *prefixes*,
which is what makes the hybrid an order of magnitude faster than spatial
pruning alone (Figure 14): candidates must be simultaneously plausible on
both axes.
"""

from __future__ import annotations

import zlib
from typing import Sequence

import numpy as np

from repro.core.method import SearchMethod
from repro.core.objects import Query, SpatioTextualObject
from repro.filters.base import FULL_SCAN, Probes, candidates_from_probes
from repro.geometry import Rect
from repro.index.inverted import InvertedIndex, directory_rows
from repro.index.storage import IndexSizeReport, measure_index
from repro.signatures.prefix import prefix_elements, segmented_suffix_bounds
from repro.signatures.spatial import GridScheme
from repro.signatures.textual import TextualScheme
from repro.text.weights import TokenWeighter

#: Key type in the hybrid index: an exact (token, cell) pair, or an int
#: bucket when hashing is enabled.
HybridKey = "tuple[str, int] | int"


def _bucket(token: str, cell: int, num_buckets: int) -> int:
    """Stable hash of a (token, cell) pair into ``num_buckets`` buckets.

    CRC32 rather than ``hash()``: Python randomises string hashing per
    process, which would make index layouts — and benchmark numbers —
    non-reproducible.
    """
    return zlib.crc32(f"{token}\x1f{cell}".encode("utf-8")) % num_buckets


class HybridFilter(SearchMethod):
    """Hash-based hybrid signature filtering (``HybridFilter(p)``).

    Args:
        objects: The corpus.
        weighter: Corpus idf statistics (built if omitted).
        granularity: Grid cells per side for the spatial half.
        num_buckets: Cap on the number of inverted lists; ``None`` keeps
            exact ``(token, cell)`` keys (no collisions).  Collisions cost
            only extra candidates — never missed answers — because every
            posting is verified.
        space: Grid space override (defaults to the corpus MBR).
        order: Global cell order name.
    """

    name = "hash-hybrid"

    def __init__(
        self,
        objects: Sequence[SpatioTextualObject],
        weighter: TokenWeighter | None = None,
        *,
        granularity: int = 256,
        num_buckets: int | None = None,
        space: Rect | None = None,
        order: str = "count_asc",
    ) -> None:
        super().__init__(objects, weighter)
        self.granularity = granularity
        self.num_buckets = num_buckets
        self.textual = TextualScheme(self.weighter)
        self.spatial = GridScheme.from_corpus(objects, granularity, space=space, order=order)
        # Both signature halves of every object as flat arrays, then the
        # per-object cross product by index arithmetic: postings come out
        # object by object, token-major, in signature order — the order
        # the directory is numbered in.
        vocabulary, num_tokens, tokens, t_bounds = self.textual.corpus_signatures(self.corpus)
        cell_sigs = [self.spatial.object_signature(obj) for obj in self.corpus]
        num_cells = np.array([len(sig) for sig in cell_sigs], dtype=np.int64)
        cells = np.array([cell for sig in cell_sigs for cell, _ in sig], dtype=np.int64)
        r_bounds = segmented_suffix_bounds(
            np.array([weight for sig in cell_sigs for _, weight in sig], dtype=np.float64),
            num_cells,
        )
        per_object = num_tokens * num_cells
        oids = np.repeat(np.arange(len(self.corpus)), per_object)
        within = np.arange(len(oids)) - np.repeat(np.cumsum(per_object) - per_object, per_object)
        token_at = (np.cumsum(num_tokens) - num_tokens)[oids] + within // num_cells[oids]
        cell_at = (np.cumsum(num_cells) - num_cells)[oids] + within % num_cells[oids]
        span = self.spatial.grid.num_cells
        rows, first = directory_rows(tokens[token_at] * span + cells[cell_at])
        elements = [
            self._key(vocabulary[token], cell)
            for token, cell in zip(tokens[token_at[first]].tolist(), cells[cell_at[first]].tolist())
        ]
        if num_buckets is not None:
            # Colliding pairs share a list: renumber by bucket.
            buckets = np.array(elements, dtype=np.int64)[rows]
            rows, first = directory_rows(buckets)
            elements = buckets[first].tolist()
        self.index = InvertedIndex.from_postings(
            elements, rows, oids, r_bounds[cell_at], t_bounds[token_at]
        )

    def _key(self, token: str, cell: int):
        if self.num_buckets is None:
            return (token, cell)
        return _bucket(token, cell, self.num_buckets)

    # ------------------------------------------------------------------
    # Filter step (Hybrid-Sig-Filter+, Figure 8)
    # ------------------------------------------------------------------

    def probes(self, query: Query) -> Probes:
        tokens, c_t = self.textual.query_prefix(query)
        # Hybrid lists can only reach objects sharing a token AND a cell
        # with the query; either predicate being vacuous breaks that.
        if c_t <= 0.0 or query.tau_r <= 0.0:
            return FULL_SCAN
        c_r = self.spatial.threshold(query)
        cell_prefix = prefix_elements(self.spatial.query_signature(query), c_r)
        # Bucketed keys can collide across (t, g) pairs; one probe with
        # the same thresholds covers them all, so each key is named once.
        keys = dict.fromkeys(
            self._key(token, cell) for token in tokens for cell, _ in cell_prefix
        )
        return list(keys), c_r, c_t

    candidates = candidates_from_probes

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def index_size(self) -> IndexSizeReport:
        return measure_index(self.index, bounds_per_posting=2)
