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

import numpy as np

from repro.core.method import SearchMethod
from repro.core.objects import Query
from repro.filters.base import FULL_SCAN, Probes, candidates_from_probes
from repro.geometry import Rect
from repro.index.inverted import InvertedIndex
from repro.index.storage import CELL_KEY_BYTES, IndexSizeReport, measure_index
from repro.signatures.prefix import prefix_elements
from repro.signatures.query import compile_query
from repro.signatures.spatial import GridScheme
from repro.signatures.textual import TextualScheme


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
    """

    name = "hash-hybrid"

    def _build(
        self,
        *,
        granularity: int = 256,
        num_buckets: int | None = None,
        space: Rect | None = None,
    ):
        self.granularity = granularity
        self.num_buckets = num_buckets
        self.textual = TextualScheme(self.weighter)
        # Both signature halves of every object as flat arrays, then the
        # per-object cross product by index arithmetic: postings come out
        # object by object, token-major, in signature order.
        self.spatial, num_cells, cells, r_bounds, block = GridScheme.from_corpus(
            self.corpus, granularity, space=space
        )
        self.token_ids, num_tokens, tokens, t_bounds = self.textual.corpus_signatures(
            self.corpus
        )
        per_object = num_tokens * num_cells
        oids = np.repeat(np.arange(len(self.corpus)), per_object)
        within = np.arange(len(oids)) - np.repeat(np.cumsum(per_object) - per_object, per_object)
        token_at = (np.cumsum(num_tokens) - num_tokens)[oids] + within // num_cells[oids]
        cell_at = (np.cumsum(num_cells) - num_cells)[oids] + within % num_cells[oids]
        codes = self._codes(tokens[token_at], cells[cell_at])
        self.index = InvertedIndex.from_postings(codes, oids, r_bounds[cell_at], t_bounds[token_at])
        return block, (self.token_ids, num_tokens, tokens)

    def _codes(self, token_ids, cells) -> np.ndarray:
        """The codes of the pairs ``(token_ids[i], cells[i])``."""
        codes = token_ids * self.spatial.grid.num_cells + cells
        return codes if self.num_buckets is None else bucket(codes, self.num_buckets)

    # ------------------------------------------------------------------
    # Filter step (Hybrid-Sig-Filter+, Figure 8)
    # ------------------------------------------------------------------

    def probes(self, query: Query) -> Probes:
        query = compile_query(query, self.weighter)
        # Hybrid lists can only reach objects sharing a token AND a cell
        # with the query; either predicate being vacuous breaks that, and a
        # region with an infinite edge has no cells.
        if query.c_t <= 0.0 or query.tau_r <= 0.0 or not query.region.is_finite:
            return FULL_SCAN
        cell_prefix = prefix_elements(self.spatial.signature_of_region(query.region), query.c_r)
        # A token outside the vocabulary was posted with no cell: no list
        # to open (a dual-bound miss is not a probe either way).
        ids = [self.token_ids[token] for token in query.prefix_tokens() if token in self.token_ids]
        codes = self._codes(
            np.repeat(np.array(ids, dtype=np.int64), len(cell_prefix)),
            np.tile(np.array([cell for cell, _ in cell_prefix], dtype=np.int64), len(ids)),
        )
        if self.num_buckets is not None:
            # Bucketed codes can collide across (t, g) pairs; one probe
            # with the same thresholds covers them all.
            codes = np.unique(codes)
        return codes.tolist(), query.c_r, query.c_t

    candidates = candidates_from_probes

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def index_size(self) -> IndexSizeReport:
        # A bucket's key is its id alone; an exact pair's, token + cell.
        tokens = list(self.token_ids) if self.num_buckets is None else None
        return measure_index(self.index, bounds_per_posting=2, tokens=tokens,
                             span=self.spatial.grid.num_cells, cell_bytes=CELL_KEY_BYTES)
