"""The CSR inverted index against the per-list reference.

``tests/reference_postings.py`` keeps the staged Python posting lists
``src/`` used to carry as a second storage backend.  These tests pin
that the one store left is that index, kernel by kernel and filter by
filter:

* single-list probes on both index kinds and the bulk loader against
  the reference and against brute force (hypothesis);
* every filter that owns an index — ``token``, ``grid``, ``hash-hybrid``
  (exact and bucketed keys), ``seal`` and ``keyword-first`` — on seeded
  Twitter-like and USA-like corpora, and on the Twitter-like one under a
  stale weighter that misses half its tokens: the bulk-loaded index equals the
  reference staged posting by posting under the filter's element codes,
  list by list in code order, and the probe loop returns the same heads
  with the same ``lists_probed`` / ``entries_retrieved`` /
  ``entries_matched`` across the five regimes of the golden planner
  workload, directory misses included;
* edge builds (all-empty token sets, zero-area regions, one object, no
  postings at all) and a hypothesis sweep over random tiny corpora.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Query, Rect, TokenWeighter, build_method, make_corpus
from repro.core.stats import SearchStats
from repro.datasets import generate_queries
from repro.filters.base import FULL_SCAN
from repro.index.inverted import InvertedIndex

from tests import reference_hss
from tests.fixtures.make_planner_golden import REGIMES
from tests.hss_testlib import frontiers
from tests.reference_postings import (
    ReferenceIndex,
    assert_same_index,
    keyword_index,
    single_scheme_index,
)

COUNTERS = ("lists_probed", "entries_retrieved", "entries_matched")


def counters(stats: SearchStats):
    values = [getattr(stats, counter) for counter in COUNTERS]
    # Statistics stay JSON-friendly plain ints, never NumPy scalars.
    assert all(type(value) is int for value in values)
    return values


def oids(candidates):
    return sorted(int(oid) for oid in candidates)


# ----------------------------------------------------------------------
# Kernels vs brute force vs the reference lists
# ----------------------------------------------------------------------


postings = st.lists(
    st.tuples(st.integers(0, 50), st.floats(0, 100)), min_size=0, max_size=40
)
dual_postings = st.lists(
    st.tuples(st.integers(0, 50), st.floats(0, 100), st.floats(0, 10)),
    min_size=0,
    max_size=40,
)


#: The code of the one list :func:`_load` builds.
E = 7


def _load(entries, *, dual: bool):
    """One list ``E`` holding ``entries``, both ways."""
    reference = ReferenceIndex(dual=dual)
    for entry in entries:
        reference.add(E, *entry)
    columns = list(zip(*entries)) or [[], [], []]
    index = InvertedIndex.from_postings([E] * len(entries), *columns[: 3 if dual else 2])
    return index, reference.freeze()


@given(postings, st.floats(0, 100))
def test_probe_equals_reference_and_brute_force(entries, threshold):
    index, reference = _load(entries, dual=False)
    head = index.probe(E, threshold)
    expected = reference.lists[E].retrieve(threshold) if entries else []
    # Same oids, same (bound-desc, oid-asc) order — not just same set.
    assert head.tolist() == list(expected)
    assert sorted(head.tolist()) == sorted(oid for oid, bound in entries if bound >= threshold)
    # Heads are read-only views: mutating one must not corrupt the index.
    assert not head.flags.writeable


def _one_list(index, element, bound, t_bound):
    """``union_heads`` over one list: ``(sorted distinct oids, counters)``."""
    stats = SearchStats()
    return oids(index.union_heads([element], bound, t_bound, stats)), counters(stats)


@given(dual_postings, st.floats(0, 100), st.floats(0, 10))
def test_dual_probe_equals_reference_and_brute_force(entries, min_r, min_t):
    index, reference = _load(entries, dual=True)
    if not entries:  # no list at all: not even a probe
        assert _one_list(index, E, min_r, min_t) == ([], [0, 0, 0])
        return
    head, (lists, scanned, matched) = _one_list(index, E, min_r, min_t)
    expected, expected_scanned = reference.lists[E].retrieve(min_r, min_t)
    assert head == sorted(set(expected))  # this list may repeat an oid
    assert (lists, scanned, matched) == (1, expected_scanned, len(expected))
    assert head == sorted({oid for oid, r, t in entries if r >= min_r and t >= min_t})
    # The spatial head on its own is what ``probe`` cuts.
    assert len(index.probe(E, min_r)) == scanned >= matched


@given(st.lists(st.tuples(st.sampled_from([-5, 0, 3, 7, 2**40]), st.integers(0, 9),
                          st.sampled_from([0.0, 0.5, 1.0, 2.5]), st.floats(0, 10)),
                min_size=0, max_size=40))
def test_from_postings_equals_staging_and_freezing(entries):
    """Rows in code order, (-bound, oid) within a row, ties on both keys
    in arrival order, same rows_unique — both list kinds."""
    columns = [list(column) for column in zip(*entries)] or [[], [], [], []]
    for dual in (True, False):
        staged = ReferenceIndex(dual=dual)
        for code, oid, r, t in entries:
            staged.add(code, oid, r, *([t] if dual else []))
        loaded = InvertedIndex.from_postings(*columns[: 4 if dual else 3])
        assert_same_index(loaded, staged.freeze())
    # Arrival order is free: any permutation that keeps ties in place
    # loads the same index.
    order = sorted(range(len(entries)), key=lambda i: -entries[i][0])
    shuffled = InvertedIndex.from_postings(*([column[i] for i in order] for column in columns[:3]))
    assert_same_index(shuffled, staged)


def test_from_postings_rejects_misuse():
    with pytest.raises(ValueError):  # an oid without a code
        InvertedIndex.from_postings([4], [1, 2], [2.0, 2.0])
    with pytest.raises(ValueError):  # a textual bound too many
        InvertedIndex.from_postings([4, 5], [1, 2], [2.0, 2.0], [3.0, 3.0, 3.0])
    assert InvertedIndex.from_postings([4], [1], [2.0], [3.0]).t_bounds is not None
    assert InvertedIndex.from_postings([4], [1], [2.0]).t_bounds is None


def test_directory_is_the_sorted_code_column():
    index = InvertedIndex.from_postings([7, 3, 7, 9, 3, -1], range(6), [1.0] * 6)
    assert index.codes.tolist() == [-1, 3, 7, 9]
    assert index.list_lengths().tolist() == [1, 2, 2, 1]
    assert 9 in index and 8 not in index and len(index) == 4
    empty = InvertedIndex.from_postings([], [], [])
    assert empty.codes.dtype == np.int64 and len(empty) == empty.num_postings() == 0
    assert empty.list_lengths().size == 0


def test_list_lengths_describe_the_postings():
    index = InvertedIndex.from_postings([0] * 10 + [1], list(range(10)) + [0], [0.0] * 11)
    lengths = index.list_lengths()
    assert len(index) == lengths.size == 2
    assert index.num_postings() == lengths.sum() == 11
    assert lengths.max() == 10 and lengths.mean() == pytest.approx(5.5)


def test_token_filter_has_one_list_per_token(figure1_objects, figure1_weighter):
    index = build_method(figure1_objects, "token", figure1_weighter).index
    assert len(index) == 5  # t1..t5
    assert index.num_postings() == index.list_lengths().sum() == sum(
        len(obj.tokens) for obj in figure1_objects
    )


def test_each_unseen_token_gets_a_miss_of_its_own():
    objects = make_corpus([(Rect(0, 0, 1, 1), {"tea"}), (Rect(0, 0, 1, 1), {"cake"})])
    method = build_method(objects, "token")
    codes = method.encode(["cake", "x", "tea", "y"])
    assert codes == [method.token_ids["cake"], -2, method.token_ids["tea"], -4]
    stats = SearchStats()
    assert oids(method.index.union_heads(codes, 0.5, None, stats)) == [0, 1]
    assert counters(stats) == [4, 2, 2]  # every unseen token is one probe


def test_probe_miss_returns_empty_of_consistent_type():
    index = InvertedIndex.from_postings([4], [1], [2.0])
    hit, miss = index.probe(4, 0.0), index.probe(5, 0.0)
    assert isinstance(hit, np.ndarray) and isinstance(miss, np.ndarray)
    assert hit.dtype == miss.dtype and len(miss) == 0
    # A dual-bound miss is not counted as a probe; a list the spatial
    # bound cuts to nothing is an opened list with an empty head.
    dual = InvertedIndex.from_postings([4], [1], [2.0], [3.0])
    assert _one_list(dual, 5, 0.0, 0.0) == ([], [0, 0, 0])
    assert _one_list(dual, 4, 5.0, 0.0) == ([], [1, 0, 0])
    assert _one_list(dual, 4, 1.0, 5.0) == ([], [1, 1, 0])
    assert _one_list(dual, 4, 1.0, 1.0) == ([1], [1, 1, 1])


def test_tie_break_is_oid_ascending():
    """Equal bounds retrieve in ascending oid order, so answers and
    ``entries_retrieved`` do not depend on insertion order."""
    single = InvertedIndex.from_postings([4] * 5, [9, 3, 7, 1, 4], [5.0, 5.0, 5.0, 5.0, 8.0])
    assert single.probe(4, 5.0).tolist() == [4, 1, 3, 7, 9]
    dual = InvertedIndex.from_postings([4] * 4, [9, 3, 7, 1], [5.0] * 4, [1.0] * 4)
    assert dual.probe(4, 5.0).tolist() == [1, 3, 7, 9]


def test_index_pickles_self_contained():
    import pickle

    index = InvertedIndex.from_postings([2, 2, 8], [0, 1, 2], [2.0, 3.0, 1.0], [1.0, 0.5, 1.0])
    restored = pickle.loads(pickle.dumps(index))
    for column in ("codes", "offsets", "oids", "neg_bounds", "t_bounds"):
        assert getattr(restored, column).tobytes() == getattr(index, column).tobytes()
        assert not getattr(restored, column).flags.writeable
    assert restored.rows_unique == index.rows_unique
    assert _one_list(restored, 2, 2.5, 0.0) == ([1], [1, 1, 1])


# ----------------------------------------------------------------------
# Every filter's index and probe loop vs the reference, on real corpora
# ----------------------------------------------------------------------

#: name -> (build, reference index of the built method).
FILTERS = {
    "token": (
        lambda corpus, w: build_method(corpus, "token", w),
        single_scheme_index,
    ),
    "grid": (
        lambda corpus, w: build_method(corpus, "grid", w, granularity=32),
        single_scheme_index,
    ),
    "hash-hybrid": (
        lambda corpus, w: build_method(corpus, "hash-hybrid", w, granularity=32),
        lambda method: reference_hss.hybrid_index(method.corpus, method),
    ),
    "hash-hybrid-bucketed": (
        lambda corpus, w: build_method(
            corpus, "hash-hybrid", w, granularity=32, num_buckets=997
        ),
        lambda method: reference_hss.hybrid_index(method.corpus, method),
    ),
    "seal": (
        lambda corpus, w: build_method(corpus, "seal", w, mt=8, max_level=6),
        lambda method: reference_hss.hierarchical_index(
            method.corpus, method, frontiers(method)
        ),
    ),
    "keyword-first": (
        lambda corpus, w: build_method(corpus, "keyword-first", w),
        keyword_index,
    ),
}


@pytest.fixture(scope="module", params=["twitter", "usa", "stale"])
def corpus(request, twitter_small, usa_small):
    """A corpus and the weighter its filters are built under.  ``stale``
    is the Twitter corpus under a weighter built from its first half:
    every segment sealed after idf drift is built under a weighter that
    does not know its newest tokens."""
    objects = usa_small if request.param == "usa" else twitter_small
    known = objects[: len(objects) // 2] if request.param == "stale" else objects
    weighter = TokenWeighter(obj.tokens for obj in known)
    unknown = {t for obj in objects for t in obj.tokens if t not in weighter}
    assert bool(unknown) == (request.param == "stale")
    return objects, weighter


@pytest.fixture(scope="module")
def workload(corpus):
    """The golden planner workload's five regimes over this corpus."""
    objects, _ = corpus
    return [
        query
        for kind, tau_r, tau_t, seed in REGIMES
        for query in generate_queries(
            objects, kind, num_queries=5, seed=seed, tau_r=tau_r, tau_t=tau_t
        )
    ]


@pytest.fixture(scope="module")
def built(corpus):
    """``built(name)`` → the filter over this corpus and its reference
    index, each built once per corpus."""
    cache = {}

    def get(name):
        if name not in cache:
            build, reference = FILTERS[name]
            method = build(*corpus)
            cache[name] = method, reference(method)
        return cache[name]

    return get


@pytest.mark.parametrize("name", sorted(FILTERS))
def test_index_equals_reference(built, name):
    method, reference = built(name)
    assert_same_index(method.index, reference)
    assert (method.index.t_bounds is not None) == name.startswith(("hash-hybrid", "seal"))
    assert method.index.rows_unique == (name != "hash-hybrid-bucketed")
    assert method.index.num_postings() == sum(map(len, reference.lists.values())) > 0
    assert method.index.list_lengths().tolist() == [
        len(reference.lists[code]) for code in sorted(reference.lists)
    ]


def _missing(code):
    """A code, distinct per ``code``, that nothing was posted to."""
    return code - (1 << 62)


@pytest.mark.parametrize("name", sorted(set(FILTERS) - {"keyword-first"}))
def test_probe_loop_equals_reference(built, workload, name):
    method, reference = built(name)
    index = method.index
    probed = full_scans = misses = 0
    for query in workload:
        probes = method.probes(query)
        if probes is FULL_SCAN:
            full_scans += 1
            continue
        codes, bound, t_bound = probes
        # Interleave keys nothing was posted to: a single-bound miss
        # counts as a probe, a dual-bound one does not.
        codes = [c for code in codes for c in (code, _missing(code))]
        ours, theirs = SearchStats(), SearchStats()
        union = index.union_heads(codes, bound, t_bound, ours)
        assert oids(union) == sorted(reference.union_heads(codes, bound, t_bound, theirs))
        assert counters(ours) == counters(theirs)
        expected_lists = sum(c in reference.lists for c in codes)
        assert ours.lists_probed == (len(codes) if t_bound is None else expected_lists)
        misses += len(codes) - expected_lists
        # Head by head, in list order.
        for code in codes:
            plist = reference.lists.get(code)
            if plist is None:
                assert len(index.probe(code, bound)) == 0 and code not in index
            elif t_bound is None:
                assert index.probe(code, bound).tolist() == list(plist.retrieve(bound))
            else:
                matched, scanned = plist.retrieve(bound, t_bound)
                assert index.probe(code, bound).tolist() == plist.oids[:scanned]
                assert _one_list(index, code, bound, t_bound) == (
                    sorted(set(matched)), [1, scanned, len(matched)],
                )
        # And the filter's own candidates are that loop over its probes.
        direct, stats = SearchStats(), SearchStats()
        expected = reference.union_heads(*probes, direct)
        assert oids(method.candidates(query, stats)) == sorted(expected)
        assert counters(stats) == counters(direct)
        probed += 1
    assert probed and misses
    # The vacuous-threshold regimes degenerate on the axis the filter reads.
    assert full_scans


def _reference_keyword_first(method, reference, query, stats):
    """``KeywordFirstSearch.candidates`` as it runs over per-list
    postings: the query's tokens in the global order."""
    q_total = method.weighter.total_weight(query.tokens)
    overlap = defaultdict(float)
    for token in method.weighter.sort_tokens(query.tokens):
        plist = reference.lists.get(method.token_ids.get(token))
        if plist is None:
            continue
        stats.lists_probed += 1
        for oid in plist.retrieve(0.0):
            stats.entries_retrieved += 1
            overlap[oid] += method.weighter.weight(token)
    totals = method.verifier.token_totals()
    return [
        oid
        for oid, inter in overlap.items()
        if q_total + totals[oid] - inter <= 0.0
        or inter >= query.tau_t * (q_total + totals[oid] - inter)
    ]


def test_keyword_first_equals_reference(built, workload):
    """``keyword-first`` walks whole lists instead of cutting heads."""
    method, reference = built("keyword-first")
    filters = lambda q: q.tau_t > 0.0 and method.weighter.total_weight(q.tokens) > 0.0
    naive = build_method(method.corpus, "naive", method.weighter)
    filtered = 0
    first = workload[0]
    unknown = Query(first.region, first.tokens | {"no-such-token"}, 0.3, 0.3)
    # A zero-area query region: the keyword walk is unchanged, and the
    # verifier still has to agree with the naive scan on it.
    x, y = first.region.center
    point = Query(Rect(x, y, x, y), first.tokens, 0.3, 0.3)
    for query in workload + [unknown, point]:
        ours, theirs = SearchStats(), SearchStats()
        got = method.candidates(query, ours)
        if not filters(query):
            assert got == method.all_oids() and counters(ours) == [0, 0, 0]
            continue
        filtered += 1
        expected = _reference_keyword_first(method, reference, query, theirs)
        assert got == expected  # accumulation order and all
        assert counters(ours)[:2] == counters(theirs)[:2]
        assert method.search(query).answers == naive.search(query).answers
    assert filtered


# ----------------------------------------------------------------------
# Edge builds
# ----------------------------------------------------------------------

EDGE_CORPORA = {
    "all-empty-token-sets": [(Rect(0, 0, 2, 2), set()), (Rect(1, 1, 3, 3), set())],
    "zero-area-regions": [
        (Rect(1, 1, 1, 1), {"a", "b"}), (Rect(2, 2, 2, 5), {"a"}), (Rect(1, 1, 1, 1), {"b"}),
    ],
    # Degenerate corpus MBRs: the grids partition a buffered space.
    "one-point": [(Rect(1, 1, 1, 1), {"a", "b"}), (Rect(1, 1, 1, 1), {"a"}),
                  (Rect(1, 1, 1, 1), {"b"})],
    "one-line": [(Rect(0, 1, 2, 1), {"a", "b"}), (Rect(1, 1, 3, 1), {"a"}),
                 (Rect(2.5, 1, 2.5, 1), {"b"})],
    "one-object": [(Rect(0, 0, 2, 2), {"a"})],
    "one-object-no-tokens": [(Rect(0, 0, 2, 2), set())],
}
EDGE_FILTERS = {
    **{name: FILTERS[name] for name in ("token", "keyword-first")},
    "grid": (lambda c, w: build_method(c, "grid", w, granularity=8), single_scheme_index),
    "hash-hybrid": (
        lambda c, w: build_method(c, "hash-hybrid", w, granularity=8),
        FILTERS["hash-hybrid"][1],
    ),
    "hash-hybrid-bucketed": (
        lambda c, w: build_method(c, "hash-hybrid", w, granularity=8, num_buckets=7),
        FILTERS["hash-hybrid"][1],
    ),
    "seal": (lambda c, w: build_method(c, "seal", w, mt=4, max_level=3), FILTERS["seal"][1]),
}


@pytest.mark.parametrize("filter_name", sorted(EDGE_FILTERS))
@pytest.mark.parametrize("corpus_name", sorted(EDGE_CORPORA))
def test_edge_builds_equal_reference_and_naive(corpus_name, filter_name):
    objects = make_corpus(EDGE_CORPORA[corpus_name])
    weighter = TokenWeighter(obj.tokens for obj in objects)
    build, reference = EDGE_FILTERS[filter_name]
    method = build(objects, weighter)
    assert_same_index(method.index, reference(method))
    if "token" in corpus_name and filter_name != "grid":
        # A corpus yielding zero postings: an index with no list at all.
        assert len(method.index) == method.index.num_postings() == 0
    _assert_edge_answers_are_naive(method, objects, weighter)


def _assert_edge_answers_are_naive(method, objects, weighter):
    naive = build_method(objects, "naive", weighter)
    for region in (Rect(0, 0, 3, 3), Rect(1, 1, 1, 1), Rect(0, 1, 2, 1), Rect(50, 50, 60, 60)):
        for tokens in ({"a"}, {"a", "b", "zzz"}, set()):
            for tau_r, tau_t in ((0.0, 0.0), (0.1, 0.1), (0.0, 0.5), (0.5, 0.0), (1.0, 1.0)):
                query = Query(region, frozenset(tokens), tau_r, tau_t)
                assert method.search(query).answers == naive.search(query).answers, query


@pytest.mark.parametrize("method_name", ["irtree", "spatial-first"])
@pytest.mark.parametrize("corpus_name", sorted(EDGE_CORPORA))
def test_rtree_baselines_on_edge_corpora(corpus_name, method_name):
    """The two baselines over the static R-tree, at fan-out 2 so even
    these corpora get internal nodes: every answer is the naive scan's."""
    objects = make_corpus(EDGE_CORPORA[corpus_name])
    weighter = TokenWeighter(obj.tokens for obj in objects)
    method = build_method(objects, method_name, weighter, max_entries=2)
    _assert_edge_answers_are_naive(method, objects, weighter)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_property_backend_parity_all_schemes(data):
    """Hypothesis sweep: random tiny corpora and queries, every signature
    filter — the index is the reference's, candidates and statistics are
    the reference probe loop's, answers are the naive scan's."""
    from tests.strategies import corpora, queries

    objects = data.draw(corpora(min_size=1, max_size=10))
    query = data.draw(queries())
    weighter = TokenWeighter(obj.tokens for obj in objects)
    expected = build_method(objects, "naive", weighter).search(query).answers
    for name in ("token", "grid", "hash-hybrid", "hash-hybrid-bucketed", "seal"):
        build, reference = EDGE_FILTERS[name]
        method = build(objects, weighter)
        staged = reference(method)
        assert_same_index(method.index, staged)
        ours, theirs = SearchStats(), SearchStats()
        got = method.candidates(query, ours)
        probes = method.probes(query)
        if probes is FULL_SCAN:
            assert got == method.all_oids()
        else:
            assert oids(got) == sorted(staged.union_heads(*probes, theirs))
        assert counters(ours) == counters(theirs)
        assert method.search(query).answers == expected


# ----------------------------------------------------------------------
# Concurrency
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def parity_workload(twitter_small):
    recall = generate_queries(twitter_small, "small", 12, seed=3, tau_r=0.2, tau_t=0.2)
    strict = generate_queries(twitter_small, "large", 12, seed=4, tau_r=0.4, tau_t=0.4)
    return list(recall) + list(strict)


@pytest.mark.parametrize("name, threads", [("token", 4), ("planned", 8)])
def test_concurrent_queries_share_one_engine(twitter_small, twitter_small_weighter,
                                             parity_workload, name, threads):
    """A probe keeps no state on the index, so threads sharing one
    engine get exactly the per-query answers (regression: an index-global
    scratch once let one thread clear another's union mid-query).  The
    planned engine's two members share one verifier across the threads."""
    method = build_method(
        twitter_small, name, twitter_small_weighter,
        **({"granularity": 8} if name == "planned" else {}),
    )
    serial = [method.search(q) for q in parity_workload]
    expected = [result.answers for result in serial]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for _ in range(5):
                futures = [pool.submit(method.search, q) for q in parity_workload]
                assert [f.result(timeout=120).answers for f in futures] == expected
    finally:
        sys.setswitchinterval(interval)
