"""Tests for the textual and grid signature schemes (incl. Lemma 1)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError
from repro.core.objects import Query, SpatioTextualObject, make_corpus
from repro.geometry import Rect
from repro.geometry.rect import spatial_jaccard
from repro.signatures.prefix import suffix_bounds
from repro.signatures.spatial import GridScheme, min_weight_similarity
from repro.signatures.textual import TextualScheme
from repro.text.weights import TokenWeighter

from tests.conftest import FIGURE1_SPACE
from tests.strategies import rects


class TestTextualScheme:
    def test_signature_in_global_order(self, figure1_objects, figure1_weighter):
        scheme = TextualScheme(figure1_weighter)
        sig = scheme.object_signature(figure1_objects[1])  # o2 = {t1,t2,t3}
        elements = [e for e, _ in sig]
        # Global order: t1/t3 tie at idf ln(7/3) (alphabetical), then t2.
        assert elements == ["t1", "t3", "t2"]

    def test_threshold_figure4(self, figure1_weighter, figure1_query):
        # Paper: cT = τT · Σ w(q.T) = 0.57 — computed from the *displayed*
        # one-decimal weights (0.8 + 0.3 + 0.8) · 0.3.  With exact idf
        # values ln(7/3), ln(7/5), ln(7/3) the threshold is 0.609.
        scheme = TextualScheme(figure1_weighter)
        assert scheme.threshold(figure1_query) == pytest.approx(0.609, abs=0.001)
        rounded = 0.3 * (0.8 + 0.3 + 0.8)
        assert rounded == pytest.approx(0.57)

    def test_signature_weights(self, figure1_weighter, figure1_query):
        scheme = TextualScheme(figure1_weighter)
        sig = scheme.query_signature(figure1_query)
        for token, weight in sig:
            assert weight == figure1_weighter.weight(token)


    def test_corpus_signatures_match_per_object(self, twitter_small, twitter_small_weighter):
        scheme = TextualScheme(twitter_small_weighter)
        vocabulary, sizes, tokens, bounds = scheme.corpus_signatures(twitter_small)
        assert sizes.tolist() == [len(obj.tokens) for obj in twitter_small]
        assert sorted(vocabulary) == sorted({t for obj in twitter_small for t in obj.tokens})
        expected_tokens, expected_bounds = [], []
        for obj in twitter_small:
            sig = scheme.object_signature(obj)
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
            sig = scheme.object_signature(obj)
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
        scheme = GridScheme.from_corpus(figure1_objects, 4, space=FIGURE1_SPACE)
        sig = scheme.object_signature(figure1_objects[1])
        assert sorted(w for _, w in sig) == [150.0, 225.0, 250.0, 300.0, 375.0, 450.0]

    def test_figure5_query_weights(self, figure1_objects, figure1_query):
        """q's weights are the paper's {150, 750, 450, 500, 300, 250}."""
        scheme = GridScheme.from_corpus(figure1_objects, 4, space=FIGURE1_SPACE)
        sig = scheme.query_signature(figure1_query)
        assert sorted(w for _, w in sig) == [150.0, 250.0, 300.0, 450.0, 500.0, 750.0]

    def test_threshold_figure5(self, figure1_objects, figure1_query):
        # cR = τR · |q.R| = 0.25 · 2400 = 600.
        scheme = GridScheme.from_corpus(figure1_objects, 4, space=FIGURE1_SPACE)
        assert scheme.threshold(figure1_query) == pytest.approx(600.0)

    def test_signature_similarity_figure5(self, figure1_objects, figure1_query):
        # sim(S_R(q), S_R(o2)) = 1375 (Section 4.1's worked example).
        scheme = GridScheme.from_corpus(figure1_objects, 4, space=FIGURE1_SPACE)
        sim = min_weight_similarity(
            scheme.query_signature(figure1_query),
            scheme.object_signature(figure1_objects[1]),
        )
        assert sim == pytest.approx(1375.0)

    def test_signature_sorted_by_rank(self, figure1_objects):
        scheme = GridScheme.from_corpus(figure1_objects, 4, space=FIGURE1_SPACE)
        sig = scheme.object_signature(figure1_objects[1])
        ranks = [scheme.rank(c) for c, _ in sig]
        assert ranks == sorted(ranks)

    def test_unseen_cells_rank_last_and_stably(self, figure1_objects):
        scheme = GridScheme.from_corpus(figure1_objects, 4, space=FIGURE1_SPACE)
        seen_max = max(scheme.rank(c) for c, _ in scheme.signature_of_region(FIGURE1_SPACE))
        # A cell with no object cannot outrank seen cells.
        all_cells = set(range(16))
        seen = {c for c, _ in scheme.signature_of_region(FIGURE1_SPACE)}
        for cell in all_cells - seen:
            assert scheme.rank(cell) > seen_max


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
    scheme = GridScheme.from_corpus(objects, granularity, space=Rect(0, 0, 120, 120))
    query = Query(query_region, frozenset({"t"}), tau_r, 0.0)
    c_r = scheme.threshold(query)
    q_sig = scheme.query_signature(query)
    for obj in objects:
        if spatial_jaccard(query_region, obj.region) >= tau_r:
            sim = min_weight_similarity(q_sig, scheme.object_signature(obj))
            assert sim >= c_r - 1e-9, (
                f"Lemma 1 violated: simR >= {tau_r} but signature sim {sim} < cR {c_r}"
            )
