"""Tests for the verification step (exact threshold checks)."""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import Query, Rect, SpatioTextualObject, TokenWeighter, make_corpus
from repro.core.similarity import filter_ceiling, filter_threshold
from repro.core.verification import Verifier
from repro.signatures.query import compile_query

from tests import reference_verify as reference
from tests.test_exec_batch import BRANCHES, _boundary_corpus, forced


@pytest.fixture()
def corpus():
    return make_corpus(
        [
            (Rect(0, 0, 10, 10), {"a", "b"}),
            (Rect(0, 0, 10, 10), {"c"}),
            (Rect(50, 50, 60, 60), {"a", "b"}),
            (Rect(5, 5, 5, 5), {"a"}),          # degenerate point
        ]
    )


@pytest.fixture()
def verifier(corpus):
    return Verifier(corpus, TokenWeighter(o.tokens for o in corpus))


class TestVerifier:
    def test_both_thresholds_required(self, verifier):
        q = Query(Rect(0, 0, 10, 10), frozenset({"a", "b"}), 0.5, 0.5)
        assert verifier.verify(q, range(4)) == [0]

    def test_spatial_only_failure(self, verifier):
        q = Query(Rect(50, 50, 60, 60), frozenset({"a", "b"}), 0.5, 0.5)
        assert verifier.verify(q, range(4)) == [2]

    def test_order_preserved_and_no_dedup_responsibility(self, verifier):
        q = Query(Rect(0, 0, 10, 10), frozenset({"a", "b"}), 0.0, 0.0)
        assert verifier.verify(q, [2, 0, 1]) == [2, 0, 1]

    def test_boundary_equality_is_answer(self, verifier):
        # simR exactly 0.5: query [0,0,10,5] vs object [0,0,10,10].
        q = Query(Rect(0, 0, 10, 5), frozenset({"a", "b"}), 0.5, 0.0)
        assert 0 in verifier.verify(q, [0])

    def test_degenerate_query_identical_point(self, verifier):
        q = Query(Rect(5, 5, 5, 5), frozenset({"a"}), 1.0, 0.5)
        assert verifier.verify(q, range(4)) == [3]

    def test_degenerate_query_different_point(self, verifier):
        q = Query(Rect(6, 6, 6, 6), frozenset({"a"}), 0.5, 0.0)
        assert 3 not in verifier.verify(q, [3])

    def test_degenerate_tau_r_zero_keeps_everything_spatially(self, verifier):
        q = Query(Rect(99, 99, 100, 100), frozenset({"a", "b"}), 0.0, 0.5)
        assert verifier.verify(q, range(4)) == [0, 2]

    def test_verify_one_candidate(self, verifier):
        q = Query(Rect(0, 0, 10, 10), frozenset({"a", "b"}), 0.5, 0.5)
        assert verifier.verify(q, [0])
        assert not verifier.verify(q, [1])

    def test_stats_results_updated(self, verifier):
        from repro.core.stats import SearchStats

        stats = SearchStats()
        q = Query(Rect(0, 0, 10, 10), frozenset({"a", "b"}), 0.5, 0.5)
        verifier.verify(q, range(4), stats)
        assert stats.results == 1

    def test_zero_weight_union_counts_as_identical(self):
        # One shared token across the whole corpus: idf 0 everywhere.
        corpus = make_corpus([(Rect(0, 0, 1, 1), {"x"}), (Rect(0, 0, 1, 1), {"x"})])
        verifier = Verifier(corpus, TokenWeighter(o.tokens for o in corpus))
        q = Query(Rect(0, 0, 1, 1), frozenset({"x"}), 0.5, 1.0)
        assert verifier.verify(q, range(2)) == [0, 1]


#: Coordinates around a few unit squares, and past every one of them.
_edges = st.sampled_from([-math.inf, -2.0, -1.0, 0.0, 1.0, 2.0, math.inf])


@st.composite
def _unbounded_rects(draw) -> Rect:
    """A rectangle whose corners may sit at ±inf: the ``Infinity`` a wire
    frame may carry.  Its area or union can be inf or NaN (0·inf,
    inf − inf)."""
    x1, x2 = sorted(draw(st.tuples(_edges, _edges)))
    y1, y2 = sorted(draw(st.tuples(_edges, _edges)))
    return Rect(x1, y1, x2, y2)


#: NumPy warns on the NaNs an infinite region produces; they are expected.
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestUnboundedRegions:
    """The spatial mask and the batched pass keep exactly what the
    per-object loop keeps, when a region is infinite."""

    EVERYWHERE = Rect(-math.inf, -math.inf, math.inf, math.inf)

    @pytest.mark.parametrize("n", [10, 100])
    def test_an_everywhere_query_at_tau_r_zero_answers_every_object(self, n):
        """simR of the plane against a unit square is 0 (intersection 1,
        union inf), so at τR = 0 every object answers.  The loop (N = 10)
        kept them; the mask (N = 100) compared against 0·inf = NaN and
        dropped them all."""
        corpus = make_corpus([(Rect(i, 0, i + 1, 1), {"a"}) for i in range(n)])
        weighter = TokenWeighter(o.tokens for o in corpus)
        query = Query(self.EVERYWHERE, frozenset({"a"}), 0.0, 0.0)
        assert repro.build_method(corpus, "naive", weighter).search(query).answers == list(range(n))
        verifier = Verifier(corpus, weighter)
        oids = np.arange(n)
        compiled = compile_query(query, weighter)
        assert verifier._spatial_mask(compiled, oids).tolist() == list(range(n))
        assert verifier.verify_batch([query], np.zeros(n, dtype=np.intp), oids) == [list(range(n))]

    @settings(max_examples=200, deadline=None)
    @given(
        regions=st.lists(_unbounded_rects(), min_size=1, max_size=40),
        query_regions=st.lists(_unbounded_rects(), min_size=1, max_size=3),
        tau_r=st.sampled_from([0.0, 0.5]),
        tau_t=st.sampled_from([0.0, 1.0]),
    )
    def test_loop_mask_and_batch_agree(self, regions, query_regions, tau_r, tau_t):
        corpus = make_corpus([(region, {"a"}) for region in regions])
        n = len(corpus)
        weighter = _one_token_weighter(n)
        verifier = Verifier(corpus, weighter)
        # Every token set is {a}: simT = 1, so each answer list is the
        # spatial check's, whether τT = 0 skips the textual check or τT =
        # 1 runs it.
        queries = [Query(region, frozenset({"a"}), tau_r, tau_t) for region in query_regions]
        loops = [reference.spatial_survivors(query, corpus) for query in queries]
        if tau_r == 0.0:
            assert loops == [list(range(n))] * len(queries)
        for query, loop in zip(queries, loops):
            compiled = compile_query(query, weighter)
            assert np.asarray(verifier._spatial_mask(compiled, np.arange(n))).tolist() == loop
            for branch in BRANCHES:
                with forced(branch):
                    assert verifier.verify(query, range(n)) == loop
        pairs = np.repeat(np.arange(len(queries)), n), np.tile(np.arange(n), len(queries))
        assert verifier.verify_batch(queries, *pairs) == loops


#: Every way ``verify`` can go: each forced branch, and the default cut.
PATHS = ("default",) + tuple(sorted(BRANCHES))


def along(path: str):
    """While open, every candidate set verifies through ``path``."""
    return contextlib.nullcontext() if path == "default" else forced(path)


#: Coordinates of the grid the free regions of ``_lemma1_cases`` sit on.
_grid = st.sampled_from([-3.0, -1.0, 0.0, 1.0, 2.5, 4.0, 6.0])


def _rect_with_area(x1: float, y1: float, height: float, area: float) -> Rect:
    """``[x1, x2] × [y1, y1 + height]`` with the float area (as the
    verifier computes it) ``area``, or the nearest a few ulps of ``x2``
    reach."""
    y2 = y1 + height
    x2 = x1 + area / (y2 - y1)
    for _ in range(8):
        got = (x2 - x1) * (y2 - y1)
        if got == area:
            break
        x2 = math.nextafter(x2, math.inf if got < area else -math.inf)
    return Rect(x1, y1, max(x2, x1), y2)


@st.composite
def _lemma1_cases(draw):
    """A query and up to 40 regions around it, where Lemma 1's reject
    could part from the exact test: edges that touch, boxes one ulp
    apart or one ulp overlapping, objects inside the query on ``simR =
    τR``, areas one ulp either side of both band edges (the slack's and
    the exact ones), zero-area and infinite regions, at coordinates
    scaled by 1, 1e-150 and 1e150.  ``τR = 1e-9`` at the small scale
    puts ``c_R`` below ``sys.float_info.min``, outside the guard, and so
    does a zero-area query.  ``τT`` is 0 (no textual check) or 1."""
    scale = draw(st.sampled_from([1.0, 1e-150, 1e150]))
    tau_r = draw(st.sampled_from([1.0, 0.5, 0.25, 0.3, 1e-9]))
    tau_t = draw(st.sampled_from([0.0, 1.0]))
    qx1 = draw(st.sampled_from([0.0, -2.0, 1.5])) * scale
    qy1 = draw(st.sampled_from([0.0, 3.0])) * scale
    width = draw(st.sampled_from([0.0, 1.0, 3.0, 4.0])) * scale
    height = draw(st.sampled_from([1.0, 2.0, 5.0])) * scale
    q = Rect(qx1, qy1, qx1 + width, qy1 + height)
    q_area = q.area
    inf = math.inf
    up, down = (lambda v: math.nextafter(v, inf)), (lambda v: math.nextafter(v, -inf))
    # Areas a region sharing the query's lower-left corner and height
    # may take: both band edges, with and without the slack, ±1 ulp.
    edges = [q_area * tau_r, filter_threshold(tau_r, q_area)]
    if tau_r > 0.0:
        edges += [q_area / tau_r, filter_ceiling(tau_r, q_area)]
    areas = [f(edge) for edge in edges for f in (down, float, up) if 0.0 <= f(edge) < inf]
    unit = scale * draw(st.sampled_from([0.5, 1.0, 2.0]))
    kinds = [
        # Touching the query on one edge, or a corner.
        lambda: Rect(q.x2, q.y1, q.x2 + unit, q.y2),
        lambda: Rect(q.x1 - unit, q.y1, q.x1, q.y2),
        lambda: Rect(q.x1, q.y2, q.x2, q.y2 + unit),
        lambda: Rect(q.x1, q.y1 - unit, q.x2, q.y1),
        lambda: Rect(q.x2, q.y2, q.x2 + unit, q.y2 + unit),
        # One ulp apart, or one ulp overlapping.
        lambda: Rect(up(q.x2), q.y1, up(q.x2) + unit, q.y2),
        lambda: Rect(down(q.x2), q.y1, down(q.x2) + unit, q.y2),
        lambda: Rect(q.x1 - unit, q.y1, down(q.x1), q.y2),
        lambda: Rect(q.x1, up(q.y2), q.x2, up(q.y2) + unit),
        lambda: Rect(q.x1, q.y1 - unit, q.x2, up(q.y1)),
        # On a band edge: inside the query below |q|, containing it above.
        lambda: _rect_with_area(q.x1, q.y1, q.height, draw(st.sampled_from(areas))),
        # Inside the query with simR = τR where τR·|q| is exact.
        lambda: _rect_with_area(q.x1, q.y1, q.height, tau_r * q_area),
        # Zero-area: a point inside, a segment on an edge.
        lambda: Rect(q.x1, q.y1, q.x1, q.y1),
        lambda: Rect(q.x1, q.y2, q.x2, q.y2),
        # Infinite: the plane, a half-plane, an infinite line (NaN area).
        lambda: Rect(-inf, -inf, inf, inf),
        lambda: Rect(q.x1, -inf, inf, inf),
        lambda: Rect(-inf, q.y1, inf, q.y1),
        lambda: Rect(inf, q.y1, inf, q.y2),
        # Anywhere on a small grid around the query, or the query itself.
        lambda: Rect.from_center(draw(_grid) * scale, draw(_grid) * scale, unit, 2 * unit),
        lambda: q,
    ]
    picks = draw(st.lists(st.integers(0, len(kinds) - 1), min_size=1, max_size=40))
    return q, tau_r, tau_t, [kinds[i]() for i in picks]


def _one_token_weighter(n: int) -> TokenWeighter:
    """Weights for ``n`` objects of token set ``{a}``, ``w(a) > 0`` (as
    if one more object lacked it), so ``τT = 1`` runs a textual check
    that every object passes with a positive union."""
    return TokenWeighter.from_counts({"a": n}, n + 1)


def _assert_reference_set(case) -> None:
    """Every verify path keeps exactly :mod:`tests.reference_verify`'s
    spatial survivors: both forced branches, the default cut (over a
    ``range`` and over a filter's int32 array), and the batched pass
    (every token set is {a}, so τT = 0 skipping the textual check and
    τT = 1 running it both keep every spatial survivor)."""
    q_region, tau_r, tau_t, regions = case
    corpus = make_corpus([(region, {"a"}) for region in regions])
    verifier = Verifier(corpus, _one_token_weighter(len(corpus)))
    query = Query(q_region, frozenset({"a"}), tau_r, tau_t)
    n = len(corpus)
    expected = reference.spatial_survivors(query, corpus)
    for path in PATHS:
        with along(path):
            assert verifier.verify(query, range(n)) == expected, path
    assert verifier.verify(query, np.arange(n, dtype=np.int32)) == expected
    assert verifier.verify_batch([query], np.zeros(n, dtype=np.intp), np.arange(n)) == [expected]


#: NumPy warns on the NaNs an infinite region produces, and on areas that
#: overflow to inf at the 1e150 scale; both are expected.
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestLemma1Reject:
    """Lemma 1's reject drops nothing the exact test keeps: every path
    keeps exactly the set of the reference, which has no reject."""

    @settings(max_examples=200, deadline=None)
    @given(case=_lemma1_cases())
    def test_verify_keeps_the_reference_set(self, case):
        _assert_reference_set(case)

    @pytest.mark.slow
    @settings(max_examples=2000, deadline=None)
    @given(case=_lemma1_cases())
    def test_verify_keeps_the_reference_set_more_examples(self, case):
        _assert_reference_set(case)

    def test_objects_on_both_band_edges_answer(self):
        """``simR = τR`` at both edges of the band: an object inside the
        query with ``|o| = τR·|q|``, and one containing it with ``|o| =
        |q|/τR`` — exact in floats, so every branch must keep both."""
        corpus = make_corpus([(Rect(0, 0, 2, 2), {"a"}), (Rect(0, 0, 8, 8), {"a"})] * 20)
        verifier = Verifier(corpus, TokenWeighter(o.tokens for o in corpus))
        query = Query(Rect(0, 0, 4, 4), frozenset({"a"}), 0.25, 0.0)
        for path in PATHS:
            with along(path):
                assert verifier.verify(query, range(40)) == list(range(40)), path

    def test_the_reject_leaves_one_candidate_to_the_exact_test(self):
        """Forty pairwise-disjoint boxes, the query overlapping one: on
        every branch the exact test sees exactly that one."""
        corpus = make_corpus([(Rect(3 * i, 0, 3 * i + 2, 2), {"a"}) for i in range(40)])
        verifier = Verifier(corpus, TokenWeighter(o.tokens for o in corpus))
        query = Query(Rect(15.5, 0.5, 16.5, 1.5), frozenset({"a"}), 0.1, 0.0)
        exact = Verifier._spatial_pass
        seen = []

        def kernel(boxes, *args):
            seen.append(boxes.shape[1])
            return exact(boxes, *args)

        overlap = Rect.intersection_area

        def counted(self, other):
            seen.append(other)
            return overlap(self, other)

        with mock.patch.object(Verifier, "_spatial_pass", staticmethod(kernel)), \
                mock.patch.object(Rect, "intersection_area", counted):
            for path in PATHS:
                seen.clear()
                with along(path):
                    assert verifier.verify(query, range(40)) == [5]
                assert seen == ([1] if path == "mask" else [corpus[5].region]), path


def _large_corpus():
    """Forty objects: enough for both NumPy kernels at the default cut."""
    return make_corpus(
        (Rect(i % 7, i % 5, i % 7 + 3, i % 5 + 2), {f"t{i % 6}", f"u{i % 4}", f"v{i % 9}"})
        for i in range(40)
    )


class TestVerifierState:
    """What a verifier pickles, and what it answers with after a load."""

    #: Every object lies inside the query region (simR = 6/100) and has
    #: only tokens the query has (simT > 0.1), so a τR > 0 and a τT > 0
    #: that still keep them all run both checks.
    KEEPS_ALL = Query(
        Rect(0, 0, 10, 10),
        frozenset([f"t{i}" for i in range(6)] + [f"u{i}" for i in range(4)]
                  + [f"v{i}" for i in range(9)] + ["unseen"]),
        0.05, 0.01,
    )

    def test_pickle_carries_the_columns(self):
        """A plain pickle (no snapshot sidecar) carries the totals, the
        box block and the token CSR inline, and the clone answers with
        them."""
        corpus = _large_corpus()
        weighter = TokenWeighter(o.tokens for o in corpus)
        verifier = Verifier(corpus, weighter)
        state = verifier.__getstate__()[1]
        assert sorted(state) == ["_boxes", "_token_rows", "_token_totals", "corpus", "weighter"]
        assert state["_token_totals"] == [weighter.total_weight(o.tokens) for o in corpus]
        clone = pickle.loads(pickle.dumps(verifier))
        assert np.array_equal(clone._boxes, verifier._boxes)
        assert token_rows(clone) == token_rows(verifier)
        assert clone.verify(self.KEEPS_ALL, range(40)) == list(range(40))

    def test_saved_totals_are_the_ones_answered_with(self):
        """A snapshot written before totals were exact holds sums taken
        in some hash order — an ulp or so off.  A loaded verifier answers
        with the totals it was saved with, on both branches."""
        corpus = _boundary_corpus()
        weighter = TokenWeighter(o.tokens for o in corpus)
        canonical = Verifier(corpus, weighter)
        query = Query(Rect(0, 0, 4, 4), frozenset({"a", "b"}), 0.0, 0.5)
        kept = canonical.verify(query, range(40))
        assert 1 in kept                             # {a} against {a, b}: simT = 0.5
        # Off by more than an ulp, so the flip below is certain.
        nudged = [weighter.total_weight(o.tokens) + 1e-9 for o in corpus]
        loaded = Verifier.__new__(Verifier)
        loaded.__setstate__((None, {"corpus": corpus, "weighter": weighter,
                                    "_token_totals": nudged}))
        for branch in ("loop", "mask"):
            with forced(branch):
                answers = loaded.verify(query, range(40))
            assert 1 not in answers and set(answers) < set(kept)
        assert loaded._token_rows[4].tolist() == nudged


def token_rows(verifier) -> tuple:
    """The verifier's token CSR without its spare capacity, as lists."""
    vocabulary, weights, offsets, ids, totals = verifier._token_rows
    rows = len(verifier.corpus)
    return (
        list(vocabulary.items()),
        weights[: len(vocabulary)].tolist(),
        offsets[: rows + 1].tolist(),
        ids[: offsets[rows]].tolist(),
        totals[:rows].tolist(),
    )


class TestVerifierAppend:
    def test_appends_equal_a_fresh_verifier(self):
        """80 appends — new tokens included, against a weighter that never
        saw them — leave the CSR, the box block and the totals equal to a
        fresh verifier's over the same corpus, with the same answers."""
        objects = list(_large_corpus()) + list(make_corpus(
            (Rect(i % 11, i % 3, i % 11 + 4, i % 3 + 5), {f"t{i % 6}", f"new{i % 13}"})
            for i in range(80)
        ))
        objects = [SpatioTextualObject(i, o.region, o.tokens) for i, o in enumerate(objects)]
        weighter = TokenWeighter(o.tokens for o in objects[:40])
        grown = Verifier(list(objects[:40]), weighter)
        queries = [
            Query(Rect(0, 0, 10, 10), frozenset({"t1", "new3", "u0"}), 0.0, 0.2),
            Query(Rect(1, 1, 5, 5), frozenset({"new4", "v2"}), 0.1, 0.1),
            Query(Rect(0, 0, 20, 20), frozenset(), 0.0, 0.0),
        ]
        for query in queries:
            grown.verify(query, range(40))
        for obj in objects[40:]:
            grown.append(obj)
        fresh = Verifier(list(objects), weighter)
        for query in queries:
            with forced("loop"):
                expected = fresh.verify(query, range(120))
            assert grown.verify(query, range(120)) == fresh.verify(query, range(120)) == expected
        assert grown._token_totals == fresh._token_totals
        assert token_rows(grown) == token_rows(fresh)
        assert grown._boxes.shape[1] > 120              # spare capacity
        assert np.array_equal(grown._boxes[:, :120], fresh._boxes)


class TestHashSeedIndependence:
    SCRIPT = (
        "import numpy as np\n"
        "from repro import Query, TokenWeighter, build_method\n"
        "from repro.core.stats import SearchStats\n"
        "from repro.core.verification import Verifier\n"
        "from repro.datasets import generate_twitter\n"
        "corpus = generate_twitter(2000, seed=7)\n"
        "weighter = TokenWeighter(o.tokens for o in corpus)\n"
        "verifier = Verifier(corpus, weighter)\n"
        "print(repr([weighter.total_weight(o.tokens) for o in corpus]))\n"
        "queries, singles = [], []\n"
        "for anchor, other in zip(corpus[::50], corpus[25::50]):\n"
        "    tokens = frozenset(sorted(anchor.tokens)[::2]) | other.tokens\n"
        "    shared = weighter.sort_tokens(tokens & anchor.tokens)\n"
        "    inter = sum(weighter.weight(t) for t in shared)\n"
        "    union = weighter.total_weight(tokens) + weighter.total_weight(anchor.tokens) - inter\n"
        "    query = Query(anchor.region, tokens, 0.0, inter / union)\n"
        "    near = [oid for oid in range(anchor.oid - 5, anchor.oid + 5) if 0 <= oid < 2000]\n"
        "    queries.append(query)\n"
        "    singles.append(verifier.verify(query, range(2000)))\n"
        "    print(repr(query.tau_t), singles[-1], verifier.verify(query, near))\n"
        "pairs = np.repeat(np.arange(len(queries)), 2000), np.tile(np.arange(2000), len(queries))\n"
        "batched = verifier.verify_batch(queries, *pairs)\n"
        "assert batched == singles\n"
        "print(batched)\n"
        "for name in ('irtree', 'keyword-first'):\n"
        "    method, rows = build_method(corpus, name, weighter), []\n"
        "    for query in queries:\n"
        "        stats = SearchStats()\n"
        "        found = list(method.candidates(query, stats))\n"
        "        rows.append((found, stats.lists_probed, stats.entries_retrieved))\n"
        "    print(name, rows)\n"
    )

    def test_totals_and_answers_at_sim_t_equal_tau_do_not_move(self):
        """Totals and the answers to queries sitting exactly on simT = τT,
        through both branches and the batched verify (which must equal
        the single answers), and the ``irtree`` and ``keyword-first``
        candidates and counters for them, are byte-identical under three
        hash seeds
        — what a primary and its replica, or a process and its recovered
        successor, each compute."""
        outputs = []
        for hash_seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(Path(repro.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")]
            )
            done = subprocess.run(
                [sys.executable, "-c", self.SCRIPT],
                env=env, capture_output=True, text=True, timeout=120, check=True,
            )
            outputs.append(done.stdout)
        assert outputs[0].count("\n") == 44
        assert outputs[0] == outputs[1] == outputs[2]
