"""Tests for the textual and grid signature schemes (incl. Lemma 1)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError
from repro.core.objects import Query, make_corpus
from repro.geometry import Rect
from repro.geometry.rect import corpus_space, spatial_jaccard
from repro.grid.uniform import UniformGrid, region_block
from repro.signatures.query import compile_query
from repro.signatures.spatial import GridScheme
from repro.signatures.textual import TextualScheme
from repro.text.weights import TokenWeighter

from tests.conftest import FIGURE1_SPACE
from tests.reference_signatures import (
    cell_ranks,
    min_weight_similarity,
    query_prefix,
    spatial_threshold,
    suffix_bounds,
    token_signature,
)
from tests.strategies import rects


def grid_scheme(objects, granularity, space):
    """The scheme alone, without the corpus's signature columns."""
    return GridScheme.from_corpus(objects, granularity, space=space)[0]


class TestTextualScheme:
    def test_signature_in_global_order(self, figure1_objects, figure1_weighter):
        ids, sizes, tokens, _ = TextualScheme(figure1_weighter).corpus_signatures(
            figure1_objects
        )
        vocabulary = list(ids)
        start = int(sizes[0])  # o2 = {t1,t2,t3}
        elements = [vocabulary[i] for i in tokens[start : start + sizes[1]].tolist()]
        # Global order: t1/t3 tie at idf ln(7/3) (alphabetical), then t2.
        assert elements == ["t1", "t3", "t2"]

    def test_threshold_figure4(self, figure1_weighter, figure1_query):
        # Paper: cT = τT · Σ w(q.T) = 0.57 — computed from the *displayed*
        # one-decimal weights (0.8 + 0.3 + 0.8) · 0.3.  With exact idf
        # values ln(7/3), ln(7/5), ln(7/3) the threshold is 0.609.
        c_t = compile_query(figure1_query, figure1_weighter).c_t
        assert c_t == query_prefix(figure1_weighter, figure1_query)[1]
        assert c_t == pytest.approx(0.609, abs=0.001)
        rounded = 0.3 * (0.8 + 0.3 + 0.8)
        assert rounded == pytest.approx(0.57)

    def test_query_prefix_is_the_signature_prefix(self, figure1_weighter, figure1_query):
        """Figure 4: under ``c_T`` = 0.609 the query ``{t1, t2, t3}``
        (weights ln(7/3), ln(7/3), ln(7/5)) keeps the two heavy tokens."""
        compiled = compile_query(figure1_query, figure1_weighter)
        assert compiled.c_t == pytest.approx(0.609, abs=0.001)
        assert compiled.prefix_tokens() == ["t1", "t3"]
        assert (compiled.prefix_tokens(), compiled.c_t) == query_prefix(
            figure1_weighter, figure1_query
        )

    def test_corpus_signatures_match_per_object(self, twitter_small, twitter_small_weighter):
        scheme = TextualScheme(twitter_small_weighter)
        vocabulary, sizes, tokens, bounds = scheme.corpus_signatures(twitter_small)
        assert sizes.tolist() == [len(obj.tokens) for obj in twitter_small]
        assert sorted(vocabulary) == sorted({t for obj in twitter_small for t in obj.tokens})
        expected_tokens, expected_bounds = [], []
        for obj in twitter_small:
            sig = token_signature(twitter_small_weighter, obj.tokens)
            expected_tokens.extend(token for token, _ in sig)
            expected_bounds.extend(suffix_bounds([w for _, w in sig]))
        assert [list(vocabulary)[i] for i in tokens.tolist()] == expected_tokens
        assert list(vocabulary.values()) == list(range(len(vocabulary)))
        assert bounds.tolist() == expected_bounds

    def test_corpus_signatures_with_foreign_weighter(self, figure1_objects):
        """A segment indexes under corpus-wide weights: its own tokens may
        be unknown to the weighter and then sort first, by name."""
        weighter = TokenWeighter.from_counts({"t1": 2, "t2": 3}, 7)
        scheme = TextualScheme(weighter)
        ids, _, tokens, bounds = scheme.corpus_signatures(figure1_objects)
        vocabulary = list(ids)
        flat = iter(zip(tokens.tolist(), bounds.tolist()))
        for obj in figure1_objects:
            sig = token_signature(weighter, obj.tokens)
            for (token, _), bound in zip(sig, suffix_bounds([w for _, w in sig])):
                index, got = next(flat)
                assert (vocabulary[index], got) == (token, bound)


class TestGridScheme:
    def test_from_corpus_requires_objects(self):
        with pytest.raises(ConfigurationError):
            GridScheme.from_corpus([], 4)

    def test_figure5_object_weights(self, figure1_objects):
        """o2's grid weights on the 4×4 / 120×120 grid are exactly the
        paper's {225, 450, 375, 150, 300, 250}."""
        scheme = grid_scheme(figure1_objects, 4, FIGURE1_SPACE)
        sig = scheme.signature_of_region(figure1_objects[1].region)
        assert sorted(w for _, w in sig) == [150.0, 225.0, 250.0, 300.0, 375.0, 450.0]

    def test_figure5_object_columns(self, figure1_objects):
        """o2's postings: its six cells in global order, each with the
        suffix sum of the weights from it on — 1750 for the first."""
        scheme, sizes, cells, bounds, _ = GridScheme.from_corpus(
            figure1_objects, 4, space=FIGURE1_SPACE
        )
        start, end = int(sizes[0]), int(sizes[0] + sizes[1])
        sig = scheme.signature_of_region(figure1_objects[1].region)
        assert cells[start:end].tolist() == [cell for cell, _ in sig]
        assert bounds[start:end].tolist() == suffix_bounds([w for _, w in sig])
        assert bounds[start] == 1750.0

    def test_figure5_query_weights(self, figure1_objects, figure1_query):
        """q's weights are the paper's {150, 750, 450, 500, 300, 250}."""
        scheme = grid_scheme(figure1_objects, 4, FIGURE1_SPACE)
        sig = scheme.signature_of_region(figure1_query.region)
        assert sorted(w for _, w in sig) == [150.0, 250.0, 300.0, 450.0, 500.0, 750.0]

    def test_threshold_figure5(self, figure1_weighter, figure1_query):
        # cR = τR · |q.R| = 0.25 · 2400 = 600.
        c_r = compile_query(figure1_query, figure1_weighter).c_r
        assert c_r == spatial_threshold(figure1_query)
        assert c_r == pytest.approx(600.0)

    def test_signature_similarity_figure5(self, figure1_objects, figure1_query):
        # sim(S_R(q), S_R(o2)) = 1375 (Section 4.1's worked example).
        scheme = grid_scheme(figure1_objects, 4, FIGURE1_SPACE)
        sim = min_weight_similarity(
            scheme.signature_of_region(figure1_query.region),
            scheme.signature_of_region(figure1_objects[1].region),
        )
        assert sim == pytest.approx(1375.0)

    def test_signature_sorted_by_rank(self, figure1_objects):
        scheme = grid_scheme(figure1_objects, 4, FIGURE1_SPACE)
        sig = scheme.signature_of_region(figure1_objects[1].region)
        ranks = [scheme.rank(c) for c, _ in sig]
        assert ranks == sorted(ranks)

    def test_cells_rank_by_ascending_count_then_id(self):
        """Section 4.2's global order: cells touched by fewer objects
        first, ties by cell id.  On a 2×2 grid the counts are cell 0: 5,
        cell 1: 1, cell 2: 3, cell 3: 1."""
        boxes = {0: (0.2, 0.2), 1: (1.2, 0.2), 2: (0.2, 1.2), 3: (1.2, 1.2)}
        counts = {0: 5, 1: 1, 2: 3, 3: 1}
        objects = make_corpus([(Rect(x, y, x + 0.5, y + 0.5), {"t"})
                               for cell, (x, y) in boxes.items() for _ in range(counts[cell])])
        scheme = grid_scheme(objects, 2, Rect(0, 0, 2, 2))
        assert sorted(range(4), key=scheme.rank) == [1, 3, 2, 0]

    def test_unseen_cells_rank_last_and_stably(self, figure1_objects):
        scheme = grid_scheme(figure1_objects, 4, FIGURE1_SPACE)
        seen_max = max(scheme.rank(c) for c, _ in scheme.signature_of_region(FIGURE1_SPACE))
        # A cell with no object cannot outrank seen cells.
        all_cells = set(range(16))
        seen = {c for c, _ in scheme.signature_of_region(FIGURE1_SPACE)}
        for cell in all_cells - seen:
            assert scheme.rank(cell) > seen_max


#: Explicit spaces: the 100×100 square the lattice below spans, and a
#: smaller box that cuts some regions and leaves others wholly outside.
GRID_SPACES = [Rect(0, 0, 100, 100), Rect(-12.5, 30.0, 55.5, 80.25)]


@st.composite
def grid_corpora(draw):
    """A granularity of 1–16, a space, and a corpus whose coordinates
    are multiples of 0.25 in [0, 100], the grid's own cell edges (the
    space's border among them), floats off that lattice in [-30, 130]
    (negative ones included) and ``-0.0``; extents may be zero.  The
    space is one of :data:`GRID_SPACES` or, a third of the time, the
    corpus MBR (its edges then come from the square)."""
    granularity = draw(st.integers(1, 16))
    space = draw(st.sampled_from(GRID_SPACES + [None]))
    cut = space or GRID_SPACES[0]

    def axis(origin, length):
        edge = st.integers(0, granularity).map(lambda k: origin + k * (length / granularity))
        return st.one_of(st.integers(0, 400).map(lambda n: n * 0.25), edge,
                         st.floats(-30.0, 130.0), st.just(-0.0))

    xs, ys = axis(cut.x1, cut.width), axis(cut.y1, cut.height)

    def region(_):
        x1, x2 = sorted(draw(st.tuples(xs, xs)))
        y1, y2 = sorted(draw(st.tuples(ys, ys)))
        return Rect(x1, y1, x2, y2)

    objects = make_corpus([(region(i), {"t"}) for i in range(draw(st.integers(1, 12)))])
    return objects, granularity, space


@settings(max_examples=150, deadline=None)
@given(grid_corpora())
def test_from_corpus_columns_are_the_per_object_signatures(case):
    """One grid pass, checked against the per-object build it replaced:
    the ranks are the ``Counter`` order (same keys, same insertion order),
    and each object's columns are ``sorted(grid.signature(r), key=rank)``
    with :func:`suffix_bounds` of its weights, bit for bit."""
    objects, granularity, space = case
    scheme, sizes, cells, bounds, block = GridScheme.from_corpus(objects, granularity, space=space)
    grid = scheme.grid
    regions = [obj.region for obj in objects]
    assert grid.space == (space if space is not None else corpus_space(regions))
    ranks = cell_ranks(grid, regions)
    assert list(scheme._ranks.items()) == list(ranks.items())
    expected_cells, expected_bounds = [], []
    for region in regions:
        signature = sorted(grid.signature(region), key=lambda pair: ranks[pair[0]])
        expected_cells.extend(cell for cell, _ in signature)
        expected_bounds.extend(suffix_bounds([w for _, w in signature]))
    assert sizes.tolist() == [len(grid.signature(region)) for region in regions]
    assert np.array_equal(block, region_block(regions))   # what the build hands its verifier
    assert cells.dtype == np.int64 and cells.tolist() == expected_cells
    assert bounds.tobytes() == np.array(expected_bounds, dtype=np.float64).tobytes()


@settings(max_examples=150, deadline=None)
@given(grid_corpora())
def test_signatures_are_the_per_region_signature(case):
    """``UniformGrid.signatures`` over the coordinate block is
    ``signature`` region by region, weights to the sign of a zero."""
    objects, granularity, space = case
    regions = [obj.region for obj in objects]
    grid = UniformGrid(space if space is not None else corpus_space(regions), granularity)
    sizes, cells, weights = grid.signatures(region_block(regions))
    expected = [grid.signature(region) for region in regions]
    assert sizes.tolist() == [len(signature) for signature in expected]
    assert cells.tolist() == [cell for signature in expected for cell, _ in signature]
    assert weights.tobytes() == np.array(
        [weight for signature in expected for _, weight in signature], dtype=np.float64
    ).tobytes()


# ----------------------------------------------------------------------
# Lemma 1 as a property: simR ≥ τR ⟹ grid signature similarity ≥ cR
# ----------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    st.lists(rects(), min_size=1, max_size=8),
    rects(),
    st.sampled_from([0.1, 0.25, 0.4, 0.5, 0.75, 1.0]),
    st.sampled_from([1, 2, 4, 8]),
)
def test_lemma1_no_false_negatives(regions, query_region, tau_r, granularity):
    objects = make_corpus([(r, {"t"}) for r in regions])
    scheme = grid_scheme(objects, granularity, Rect(0, 0, 120, 120))
    query = Query(query_region, frozenset({"t"}), tau_r, 0.0)
    c_r = compile_query(query, TokenWeighter(obj.tokens for obj in objects)).c_r
    q_sig = scheme.signature_of_region(query_region)
    for obj in objects:
        if spatial_jaccard(query_region, obj.region) >= tau_r:
            sim = min_weight_similarity(q_sig, scheme.signature_of_region(obj.region))
            assert sim >= c_r - 1e-9, (
                f"Lemma 1 violated: simR >= {tau_r} but signature sim {sim} < cR {c_r}"
            )
