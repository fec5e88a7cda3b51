"""Tests for the synthetic dataset and workload generators."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.errors import ConfigurationError
from repro.core.objects import Query
from repro.datasets import ZipfVocabulary, generate_queries, generate_twitter, generate_usa
from repro.datasets.spatial_gen import rect_from_center_area, sample_log_area
from repro.datasets.twitter import TWITTER_SPACE
from repro.datasets.usa import USA_SPACE
from repro.geometry import Rect


class TestZipfVocabulary:
    def test_bad_params(self):
        with pytest.raises(ConfigurationError):
            ZipfVocabulary(0)
        with pytest.raises(ConfigurationError):
            ZipfVocabulary(10, exponent=0.0)

    def test_head_is_heavier(self):
        vocab = ZipfVocabulary(500, seed=1)
        rng = np.random.default_rng(1)
        draws = [tuple(sorted(vocab.sample(5, rng))) for _ in range(300)]
        flat = [t for d in draws for t in d]
        head = vocab.token(0)
        tail = vocab.token(499)
        assert flat.count(head) > flat.count(tail)

    def test_sample_exact_size(self):
        vocab = ZipfVocabulary(100, seed=2)
        rng = np.random.default_rng(2)
        assert len(vocab.sample_exact(7, rng)) == 7

    def test_sample_exact_caps_at_vocab(self):
        vocab = ZipfVocabulary(3, seed=2)
        assert len(vocab.sample_exact(10)) == 3

    def test_sample_zero(self):
        assert ZipfVocabulary(10).sample(0) == set()

    def test_theme_words_first(self):
        vocab = ZipfVocabulary(100)
        assert vocab.token(0) == "coffee"


class TestSpatialGen:
    def test_sample_log_area_quantiles(self):
        rng = np.random.default_rng(0)
        knots = ((0.0, -2.0), (0.5, 0.0), (1.0, 2.0))
        areas = sample_log_area(rng, 4000, knots)
        assert np.mean(areas <= 1.0) == pytest.approx(0.5, abs=0.05)
        assert areas.min() >= 10 ** -2.0 - 1e-12
        assert areas.max() <= 10 ** 2.0 + 1e-9

    def test_sample_log_area_bad_knots(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            sample_log_area(rng, 10, ((0.1, -2.0), (1.0, 2.0)))

    def test_rect_from_center_area(self):
        space = Rect(0, 0, 100, 100)
        r = rect_from_center_area(50, 50, 25.0, 1.0, space)
        assert r.area == pytest.approx(25.0)
        assert space.union(r) == space

    def test_rect_clamped_into_space(self):
        space = Rect(0, 0, 100, 100)
        r = rect_from_center_area(1, 1, 100.0, 1.0, space)
        assert space.union(r) == space
        assert r.area == pytest.approx(100.0)


class TestTwitter:
    def test_determinism(self):
        a = generate_twitter(50, seed=5)
        b = generate_twitter(50, seed=5)
        assert a == b

    def test_seed_changes_output(self):
        assert generate_twitter(50, seed=5) != generate_twitter(50, seed=6)

    def test_bad_size(self):
        with pytest.raises(ConfigurationError):
            generate_twitter(0)

    def test_regions_inside_space(self):
        for obj in generate_twitter(100, seed=1):
            assert TWITTER_SPACE.union(obj.region) == TWITTER_SPACE

    def test_statistics_match_paper(self):
        objs = generate_twitter(3000, seed=7)
        areas = np.array([o.region.area for o in objs])
        tokens = np.array([len(o.tokens) for o in objs])
        assert areas.mean() == pytest.approx(115.0, rel=0.35)
        assert np.mean(areas <= 0.01) == pytest.approx(0.154, abs=0.03)
        assert np.mean(areas <= 1.0) == pytest.approx(0.297, abs=0.04)
        assert np.mean(areas <= 100.0) == pytest.approx(0.73, abs=0.04)
        assert tokens.mean() == pytest.approx(14.3, rel=0.05)

    def test_oids_dense(self):
        objs = generate_twitter(30, seed=2)
        assert [o.oid for o in objs] == list(range(30))


class TestUsa:
    def test_determinism(self):
        assert generate_usa(50, seed=5) == generate_usa(50, seed=5)

    def test_statistics_match_paper(self):
        objs = generate_usa(3000, seed=11)
        areas = np.array([o.region.area for o in objs])
        tokens = np.array([len(o.tokens) for o in objs])
        assert areas.mean() == pytest.approx(5.4, rel=0.2)
        assert tokens.mean() == pytest.approx(12.5, rel=0.05)

    def test_regions_inside_space(self):
        for obj in generate_usa(100, seed=1):
            assert USA_SPACE.union(obj.region) == USA_SPACE


class TestQueries:
    def test_determinism(self, twitter_small):
        a = generate_queries(twitter_small, "large", 20, seed=9)
        b = generate_queries(twitter_small, "large", 20, seed=9)
        assert list(a) == list(b)

    def test_independent_of_hash_seed(self):
        """The anchor's token frozenset iterates in hash order; the
        generator must not let that order reach its output."""
        script = (
            "from repro.datasets import generate_queries, generate_twitter\n"
            "corpus = generate_twitter(200, seed=5)\n"
            "for q in generate_queries(corpus, 'small', 25, seed=9):\n"
            "    print(q.region.as_tuple(), sorted(q.tokens))\n"
        )
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(Path(repro.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")]
            )
            done = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, timeout=120, check=True,
            )
            outputs.append(done.stdout)
        assert outputs[0] and outputs[0] == outputs[1]

    def test_unknown_kind(self, twitter_small):
        with pytest.raises(ConfigurationError):
            generate_queries(twitter_small, "medium")

    def test_empty_corpus(self):
        with pytest.raises(ConfigurationError):
            generate_queries([], "large")

    def test_statistics(self, twitter_small):
        large = generate_queries(twitter_small, "large", 100, seed=13)
        small = generate_queries(twitter_small, "small", 100, seed=13)
        mean_large = np.mean([q.region.area for q in large])
        mean_small = np.mean([q.region.area for q in small])
        assert mean_large == pytest.approx(554.0, rel=0.3)
        assert mean_small == pytest.approx(0.44, rel=0.3)
        assert np.mean([len(q.tokens) for q in large]) == pytest.approx(6.97, rel=0.2)
        assert np.mean([len(q.tokens) for q in small]) == pytest.approx(12.9, rel=0.2)

    def test_thresholds_stamped(self, twitter_small):
        w = generate_queries(twitter_small, "large", 5, seed=1, tau_r=0.3, tau_t=0.2)
        assert all(q.tau_r == 0.3 and q.tau_t == 0.2 for q in w)

    def test_returns_a_list_of_queries(self, twitter_small):
        w = generate_queries(twitter_small, "small", 3, seed=1)
        assert type(w) is list and len(w) == 3
        assert all(isinstance(q, Query) for q in w)

    def test_queries_have_answers_at_low_thresholds(self, twitter_small, twitter_small_weighter):
        """Anchored queries should not all be empty — otherwise benches
        measure nothing."""
        from repro import NaiveSearch

        naive = NaiveSearch(twitter_small, twitter_small_weighter)
        w = generate_queries(twitter_small, "small", 20, seed=3, tau_r=0.1, tau_t=0.1)
        hits = sum(1 for q in w if naive.search(q).answers)
        assert hits >= 5
