"""Tests for the ROI data model (objects, queries, corpus)."""

from __future__ import annotations

import pytest

from repro import InvalidQueryError, Query, Rect, SpatioTextualObject, make_corpus
from repro.core.objects import Corpus


class TestSpatioTextualObject:
    def test_construction(self):
        obj = SpatioTextualObject(0, Rect(0, 0, 1, 1), frozenset({"a"}))
        assert obj.oid == 0
        assert obj.tokens == {"a"}

    def test_tokens_normalised_to_frozenset(self):
        obj = SpatioTextualObject(0, Rect(0, 0, 1, 1), {"a", "b"})
        assert isinstance(obj.tokens, frozenset)

    def test_negative_oid_rejected(self):
        with pytest.raises(ValueError):
            SpatioTextualObject(-1, Rect(0, 0, 1, 1), frozenset())

    def test_value_equality(self):
        a = SpatioTextualObject(1, Rect(0, 0, 1, 1), frozenset({"x"}))
        b = SpatioTextualObject(1, Rect(0, 0, 1, 1), frozenset({"x"}))
        assert a == b and hash(a) == hash(b)


class TestQuery:
    def test_construction(self):
        q = Query(Rect(0, 0, 1, 1), frozenset({"a"}), 0.5, 0.5)
        assert q.tau_r == 0.5

    def test_threshold_bounds(self):
        for tau_r, tau_t in [(-0.1, 0.5), (1.1, 0.5), (0.5, -0.1), (0.5, 1.1)]:
            with pytest.raises(InvalidQueryError):
                Query(Rect(0, 0, 1, 1), frozenset(), tau_r, tau_t)

    def test_boundary_thresholds_allowed(self):
        Query(Rect(0, 0, 1, 1), frozenset(), 0.0, 1.0)

    def test_with_thresholds(self):
        q = Query(Rect(0, 0, 1, 1), frozenset({"a"}), 0.5, 0.5)
        q2 = q.with_thresholds(tau_r=0.2)
        assert q2.tau_r == 0.2 and q2.tau_t == 0.5 and q2.tokens == q.tokens

    def test_tokens_normalised(self):
        q = Query(Rect(0, 0, 1, 1), {"a"}, 0.5, 0.5)
        assert isinstance(q.tokens, frozenset)


class TestCorpus:
    def test_make_corpus_assigns_dense_oids(self):
        objs = make_corpus([(Rect(0, 0, 1, 1), {"a"}), (Rect(1, 1, 2, 2), {"b"})])
        assert [o.oid for o in objs] == [0, 1]

    def test_corpus_validates_density(self):
        good = make_corpus([(Rect(0, 0, 1, 1), {"a"})])
        Corpus(good)
        bad = [SpatioTextualObject(5, Rect(0, 0, 1, 1), frozenset({"a"}))]
        with pytest.raises(ValueError):
            Corpus(bad)

    def test_corpus_addressing(self):
        objs = Corpus(make_corpus([(Rect(0, 0, 1, 1), {"a"}), (Rect(1, 1, 2, 2), {"b"})]))
        assert objs[1].tokens == {"b"}
        assert len(objs) == 2
        assert [o.oid for o in objs] == [0, 1]
