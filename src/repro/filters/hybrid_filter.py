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

from typing import Sequence

import numpy as np

from repro.core.method import SearchMethod
from repro.core.objects import Query, SpatioTextualObject
from repro.filters.base import FULL_SCAN, Probes, candidates_from_probes
from repro.geometry import Rect
from repro.index.inverted import InvertedIndex
from repro.index.storage import CELL_KEY_BYTES, IndexSizeReport, measure_index
from repro.signatures.prefix import prefix_elements, segmented_suffix_bounds
from repro.signatures.spatial import GridScheme
from repro.signatures.textual import TextualScheme
from repro.text.weights import TokenWeighter


def bucket(codes: np.ndarray, num_buckets: int) -> np.ndarray:
    """The hash bucket of each ``(token, cell)`` code.

    A fixed integer mix (the SplitMix64 finaliser) of the code, mod
    ``num_buckets``: the same buckets in every process, whatever
    ``PYTHONHASHSEED`` says, so index layouts and benchmark numbers
    reproduce.
    """
    z = np.asarray(codes, dtype=np.int64).astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return ((z ^ (z >> np.uint64(31))) % np.uint64(num_buckets)).astype(np.int64)


class HybridFilter(SearchMethod):
    """Hash-based hybrid signature filtering (``HybridFilter(p)``).

    A ``(token, cell)`` pair's code is ``token_id · num_cells + cell``,
    ``token_id`` its token's id in the index's own vocabulary
    (``token_ids``); with ``num_buckets`` the code is that pair's
    :func:`bucket`.

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
        # object by object, token-major, in signature order.
        self.token_ids, num_tokens, tokens, t_bounds = self.textual.corpus_signatures(
            self.corpus
        )
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
        codes = self._codes(tokens[token_at], cells[cell_at])
        self.index = InvertedIndex.from_postings(codes, oids, r_bounds[cell_at], t_bounds[token_at])

    def _codes(self, token_ids, cells) -> np.ndarray:
        """The codes of the pairs ``(token_ids[i], cells[i])``."""
        codes = token_ids * self.spatial.grid.num_cells + cells
        return codes if self.num_buckets is None else bucket(codes, self.num_buckets)

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
        # A token outside the vocabulary was posted with no cell: no list
        # to open (a dual-bound miss is not a probe either way).
        ids = [self.token_ids[token] for token in tokens if token in self.token_ids]
        codes = self._codes(
            np.repeat(np.array(ids, dtype=np.int64), len(cell_prefix)),
            np.tile(np.array([cell for cell, _ in cell_prefix], dtype=np.int64), len(ids)),
        )
        if self.num_buckets is not None:
            # Bucketed codes can collide across (t, g) pairs; one probe
            # with the same thresholds covers them all.
            codes = np.unique(codes)
        return codes.tolist(), c_r, c_t

    candidates = candidates_from_probes

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def index_size(self) -> IndexSizeReport:
        # A bucket's key is its id alone; an exact pair's, token + cell.
        tokens = list(self.token_ids) if self.num_buckets is None else None
        return measure_index(self.index, bounds_per_posting=2, tokens=tokens,
                             span=self.spatial.grid.num_cells, cell_bytes=CELL_KEY_BYTES)
