"""Columnar (CSR) index backend: kernel correctness and backend parity.

The ``python`` backend is the reference oracle; these tests pin that the
columnar backend retrieves identical oids in an identical order, reports
bit-identical probe statistics, and answers identically through every
execution path (per-query, batch).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BatchExecutor, build_method
from repro.core.engine import METHOD_REGISTRY
from repro.core.errors import ConfigurationError
from repro.core.stats import SearchStats
from repro.datasets import generate_queries
from repro.index.columnar import BACKENDS, CSRPostingStore, directory_rows, resolve_backend
from repro.index.inverted import InvertedIndex
from repro.index.postings import DualBoundPostingList, PostingList


def _index_pair(build):
    """One python and one columnar InvertedIndex built identically."""
    indexes = []
    for backend in BACKENDS:
        index = build()
        index.freeze(backend=backend)
        indexes.append(index)
    return indexes


# ----------------------------------------------------------------------
# Kernels vs brute force vs the python backend
# ----------------------------------------------------------------------


postings = st.lists(
    st.tuples(st.integers(0, 50), st.floats(0, 100)), min_size=0, max_size=40
)
dual_postings = st.lists(
    st.tuples(st.integers(0, 50), st.floats(0, 100), st.floats(0, 10)),
    min_size=0,
    max_size=40,
)


@given(postings, st.floats(0, 100))
def test_csr_probe_equals_python_and_brute_force(entries, threshold):
    def build():
        index = InvertedIndex(PostingList)
        for oid, bound in entries:
            index.list_for("e").add(oid, bound)
        return index

    py, col = _index_pair(build)
    assert isinstance(col.store, CSRPostingStore)
    expected = sorted(oid for oid, bound in entries if bound >= threshold)
    py_head = py.probe("e", threshold)
    col_head = col.probe("e", threshold)
    # Same oids, same (bound-desc, oid-asc) order — not just same set.
    assert list(col_head) == list(py_head)
    assert sorted(col_head) == expected
    # Heads are read-only views: mutating one must not corrupt the index.
    assert not col_head.flags.writeable


@given(dual_postings, st.floats(0, 100), st.floats(0, 10))
def test_csr_dual_probe_equals_python_and_brute_force(entries, min_r, min_t):
    def build():
        index = InvertedIndex(DualBoundPostingList)
        index.list_for("e")  # exists even when empty (empty CSR row)
        for oid, r, t in entries:
            index.list_for("e").add(oid, r, t)
        return index

    py, col = _index_pair(build)
    expected = sorted(oid for oid, r, t in entries if r >= min_r and t >= min_t)
    py_oids, py_scanned = py.probe_dual("e", min_r, min_t)
    col_oids, col_scanned = col.probe_dual("e", min_r, min_t)
    assert list(col_oids) == list(py_oids)
    assert col_scanned == py_scanned
    assert sorted(col_oids) == expected
    assert col_scanned >= len(col_oids)


# ----------------------------------------------------------------------
# Bulk load vs staging
# ----------------------------------------------------------------------


def _same_frozen_index(bulk, staged, backend):
    assert bulk.backend == staged.backend == backend
    assert list(dict(bulk.items())) == list(dict(staged.items()))
    if backend == "columnar":
        for column in ("offsets", "oids", "neg_bounds", "t_bounds"):
            ours, theirs = getattr(bulk.store, column), getattr(staged.store, column)
            assert (ours is None) == (theirs is None)
            if ours is not None:
                assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()
                assert not ours.flags.writeable
        assert bulk.store.rows_unique == staged.store.rows_unique
    else:
        for element, plist in bulk.items():
            assert plist.columns() == staged.get(element).columns()


@given(st.lists(st.tuples(st.sampled_from("abcde"), st.integers(0, 9),
                          st.sampled_from([0.0, 0.5, 1.0, 2.5]), st.floats(0, 10)),
                min_size=0, max_size=40))
def test_bulk_load_equals_staging_and_freezing(entries):
    """Same directory order, same (-bound, oid) rows, ties on both keys in
    arrival order, same rows_unique — on both backends, both list kinds."""
    elements = list(dict.fromkeys(element for element, *_ in entries))
    rows = np.array([elements.index(element) for element, *_ in entries], dtype=np.int64)
    oids = np.array([oid for _, oid, _, _ in entries], dtype=np.int64)
    bounds = np.array([r for _, _, r, _ in entries], dtype=np.float64)
    t_bounds = np.array([t for _, _, _, t in entries], dtype=np.float64)
    for backend in BACKENDS:
        staged = InvertedIndex(DualBoundPostingList)
        for element, oid, r, t in entries:
            staged.list_for(element).add(oid, r, t)
        staged.freeze(backend=backend)
        bulk = InvertedIndex(DualBoundPostingList)
        bulk.bulk_load(elements, rows, oids, bounds, t_bounds, backend=backend)
        _same_frozen_index(bulk, staged, backend)

        staged = InvertedIndex(PostingList)
        for element, oid, r, _ in entries:
            staged.list_for(element).add(oid, r)
        staged.freeze(backend=backend)
        bulk = InvertedIndex(PostingList)
        bulk.bulk_load(elements, rows, oids, bounds, backend=backend)
        _same_frozen_index(bulk, staged, backend)
        assert list(bulk.probe("a", 0.5)) == list(staged.probe("a", 0.5))


def test_bulk_load_rejects_misuse():
    index = InvertedIndex(DualBoundPostingList)
    with pytest.raises(ValueError):  # dual lists need the textual column
        index.bulk_load(["e"], [0], [1], [2.0])
    with pytest.raises(ValueError):  # a row without postings
        index.bulk_load(["e", "f"], [0], [1], [2.0], [3.0])
    with pytest.raises(ValueError):  # a posting without a row
        index.bulk_load(["e"], [0, 1], [1, 2], [2.0, 2.0], [3.0, 3.0])
    with pytest.raises(ConfigurationError):
        index.bulk_load(["e"], [0], [1], [2.0], [3.0], backend="rowwise")
    index.bulk_load(["e"], [0], [1], [2.0], [3.0])  # ... and is still loadable
    with pytest.raises(RuntimeError):
        index.bulk_load(["e"], [0], [1], [2.0], [3.0])
    with pytest.raises(RuntimeError):
        index.list_for("new")
    staged = InvertedIndex(PostingList)
    staged.list_for("e").add(1, 2.0)
    with pytest.raises(RuntimeError):
        staged.bulk_load(["e"], [0], [1], [2.0])


def test_directory_rows_numbers_by_first_appearance():
    rows, first = directory_rows(np.array([7, 3, 7, 9, 3, 1]))
    assert rows.tolist() == [0, 1, 0, 2, 1, 3]
    assert first.tolist() == [0, 1, 3, 5]
    rows, first = directory_rows(np.empty(0, dtype=np.int64))
    assert len(rows) == len(first) == 0


def test_probe_miss_returns_empty_of_consistent_type():
    """Satellite: no more ``()`` on miss vs ``list`` on hit."""
    py, col = _index_pair(lambda: _single_entry_index())
    hit_py, miss_py = py.probe("e", 0.0), py.probe("absent", 0.0)
    hit_col, miss_col = col.probe("e", 0.0), col.probe("absent", 0.0)
    assert type(miss_py) is type(hit_py) is list
    assert isinstance(hit_col, np.ndarray) and isinstance(miss_col, np.ndarray)
    assert len(miss_py) == len(miss_col) == 0
    # Dual-bound misses are None in both backends (not counted as probes).
    for backend in BACKENDS:
        index = InvertedIndex(DualBoundPostingList)
        index.list_for("k").add(1, 2.0, 3.0)
        index.freeze(backend=backend)
        assert index.probe_dual("absent", 0.0, 0.0) is None


def _single_entry_index():
    index = InvertedIndex(PostingList)
    index.list_for("e").add(1, 2.0)
    return index


def test_tie_break_is_oid_ascending_in_both_backends():
    """Satellite regression: equal bounds retrieve in ascending oid order,
    so answers and ``entries_retrieved`` are bit-identical across
    backends regardless of insertion order."""

    def build_single():
        index = InvertedIndex(PostingList)
        for oid in (9, 3, 7, 1):
            index.list_for("e").add(oid, 5.0)
        index.list_for("e").add(4, 8.0)
        return index

    py, col = _index_pair(build_single)
    assert list(py.probe("e", 5.0)) == [4, 1, 3, 7, 9]
    assert list(col.probe("e", 5.0)) == [4, 1, 3, 7, 9]

    def build_dual():
        index = InvertedIndex(DualBoundPostingList)
        for oid in (9, 3, 7, 1):
            index.list_for("e").add(oid, 5.0, 1.0)
        return index

    py, col = _index_pair(build_dual)
    assert py.probe_dual("e", 5.0, 0.0) == ([1, 3, 7, 9], 4)
    col_oids, col_scanned = col.probe_dual("e", 5.0, 0.0)
    assert (list(col_oids), col_scanned) == ([1, 3, 7, 9], 4)


def test_directory_surface_matches_across_backends():
    def build():
        index = InvertedIndex(DualBoundPostingList)
        index.list_for("a").add(0, 2.0, 1.0)
        index.list_for("a").add(1, 3.0, 0.5)
        index.list_for("b").add(2, 1.0, 1.0)
        return index

    py, col = _index_pair(build)
    for index in (py, col):
        assert len(index) == 2
        assert index.num_postings() == 3
        assert index.list_length("a") == 2 and index.list_length("absent") == 0
        assert "a" in index and "absent" not in index
        assert index.get("absent") is None
        assert [key for key, _ in index.items()] == ["a", "b"]
        assert [len(plist) for _, plist in index.items()] == [2, 1]
    # Row views iterate the same postings the python lists hold.
    assert [list(plist) for _, plist in col.items()] == [
        list(plist) for _, plist in py.items()
    ]
    # And retrieve through the same posting-list surface (iomodel path).
    assert list(col.get("a").retrieve(2.5, 0.0)[0]) == list(
        py.get("a").retrieve(2.5, 0.0)[0]
    )


def test_resolve_backend_validation(figure1_objects):
    assert resolve_backend(None) in BACKENDS
    assert resolve_backend("python") == "python"
    with pytest.raises(ConfigurationError, match="unknown index backend"):
        resolve_backend("sqlite")
    with pytest.raises(ConfigurationError, match="unknown index backend"):
        build_method(figure1_objects, "token", backend="sqlite")


# ----------------------------------------------------------------------
# Whole-method and whole-executor backend parity
# ----------------------------------------------------------------------

#: Filter methods that accept a storage backend; the other registry
#: methods either have no signature index (naive, spatial-first, irtree)
#: or pin the python backend on purpose (keyword-first).
BACKEND_METHODS = {
    "token": {},
    "grid": {"granularity": 8},
    "hash-hybrid": {"granularity": 8, "num_buckets": 32},
    "seal": {"mt": 8, "max_level": 5},
}


@pytest.fixture(scope="module")
def parity_workload(twitter_small):
    recall = generate_queries(twitter_small, "small", 12, seed=3, tau_r=0.2, tau_t=0.2)
    strict = generate_queries(twitter_small, "large", 12, seed=4, tau_r=0.4, tau_t=0.4)
    return list(recall) + list(strict)


@pytest.mark.parametrize("name", sorted(BACKEND_METHODS))
def test_method_backend_parity(name, twitter_small, twitter_small_weighter, parity_workload):
    """Answers, candidates, and probe stats identical across backends."""
    params = BACKEND_METHODS[name]
    py = build_method(twitter_small, name, twitter_small_weighter, backend="python", **params)
    col = build_method(twitter_small, name, twitter_small_weighter, backend="columnar", **params)
    assert py.backend == "python" and col.backend == "columnar"
    for query in parity_workload:
        py_stats, col_stats = SearchStats(), SearchStats()
        py_cands = sorted(int(oid) for oid in py.candidates(query, py_stats))
        col_cands = sorted(int(oid) for oid in col.candidates(query, col_stats))
        assert col_cands == py_cands
        assert col_stats.lists_probed == py_stats.lists_probed
        assert col_stats.entries_retrieved == py_stats.entries_retrieved
        assert col_stats.entries_matched == py_stats.entries_matched
        # Stats stay JSON-friendly plain ints on both backends.
        assert type(col_stats.entries_retrieved) is int
        assert type(col_stats.entries_matched) is int
        assert col.search(query).answers == py.search(query).answers


def test_plain_sig_filter_backend_parity(twitter_small, twitter_small_weighter, parity_workload):
    """The accumulate kernel (Sig-Filter, no prefix pruning) matches the
    dict-accumulation reference path."""
    py = build_method(
        twitter_small, "token", twitter_small_weighter, prefix_pruning=False, backend="python"
    )
    col = build_method(
        twitter_small, "token", twitter_small_weighter, prefix_pruning=False, backend="columnar"
    )
    for query in parity_workload:
        py_stats, col_stats = SearchStats(), SearchStats()
        assert sorted(int(o) for o in col.candidates(query, col_stats)) == sorted(
            int(o) for o in py.candidates(query, py_stats)
        )
        assert col_stats.entries_retrieved == py_stats.entries_retrieved
        assert col.search(query).answers == py.search(query).answers


def test_batch_executor_backend_parity(twitter_small, twitter_small_weighter, parity_workload):
    for name, params in BACKEND_METHODS.items():
        py = build_method(twitter_small, name, twitter_small_weighter, backend="python", **params)
        col = build_method(twitter_small, name, twitter_small_weighter, backend="columnar", **params)
        executor = BatchExecutor()
        py_batch = executor.run(py, parity_workload)
        col_batch = executor.run(col, parity_workload)
        assert col_batch.answers() == py_batch.answers()
        for py_result, col_result in zip(py_batch, col_batch):
            assert col_result.stats.entries_retrieved == py_result.stats.entries_retrieved
            assert col_result.stats.candidates == py_result.stats.candidates


@pytest.mark.parametrize("name, threads", [("token", 4), ("planned", 8)])
def test_concurrent_queries_share_one_columnar_engine(twitter_small,
                                                      twitter_small_weighter,
                                                      parity_workload, name, threads):
    """Probe state is thread-local per store, so threads sharing one
    columnar engine get exactly the per-query answers (regression: a
    store-global scratch let one thread clear another's union mid-query).
    The planned engine adds the textual prefix ``plan()`` hands to the
    member it picks: per-call data, never state on the shared filters."""
    import sys
    from concurrent.futures import ThreadPoolExecutor

    method = build_method(
        twitter_small, name, twitter_small_weighter, backend="columnar",
        **({"granularity": 8, "mt": 8, "max_level": 5} if name == "planned" else {}),
    )
    serial = [method.search(q) for q in parity_workload]
    expected = [result.answers for result in serial]
    if name == "planned":
        handed = {"planned:token", "planned:hash-hybrid", "planned:seal"}
        assert handed & {r.stats.method for r in serial}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for _ in range(5):
                futures = [pool.submit(method.search, q) for q in parity_workload]
                assert [f.result(timeout=120).answers for f in futures] == expected
    finally:
        sys.setswitchinterval(interval)


def test_refreeze_with_conflicting_backend_raises():
    index = _single_entry_index()
    index.freeze(backend="python")
    index.freeze()  # no-op: already frozen
    index.freeze(backend="python")  # same backend: no-op
    assert index.store is None and index.backend == "python"
    with pytest.raises(RuntimeError, match="already frozen"):
        index.freeze(backend="columnar")


def test_failed_freeze_leaves_index_retryable():
    """An invalid backend name must not freeze the index as a side
    effect — the corrected retry succeeds."""
    index = _single_entry_index()
    with pytest.raises(ConfigurationError, match="unknown index backend"):
        index.freeze(backend="colunmar")
    index.freeze(backend="columnar")
    assert index.backend == "columnar" and index.store is not None
    assert list(index.probe("e", 0.0)) == [1]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_property_backend_parity_all_schemes(data):
    """Hypothesis sweep: random tiny corpora and queries, every
    backend-capable filter, candidates and stats identical."""
    from tests.strategies import corpora, queries

    corpus = data.draw(corpora(min_size=1, max_size=10))
    query = data.draw(queries())
    for name, params in BACKEND_METHODS.items():
        py = build_method(corpus, name, None, backend="python", **params)
        col = build_method(corpus, name, None, backend="columnar", **params)
        py_stats, col_stats = SearchStats(), SearchStats()
        assert sorted(int(o) for o in col.candidates(query, col_stats)) == sorted(
            int(o) for o in py.candidates(query, py_stats)
        )
        assert col_stats.entries_retrieved == py_stats.entries_retrieved
        assert col_stats.entries_matched == py_stats.entries_matched
        assert col.search(query).answers == py.search(query).answers
