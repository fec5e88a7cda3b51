"""Table 1's storage model and the I/O model, pinned to fixed numbers.

Element codes changed how an index keys its lists, not what the storage
model charges: every registry method's ``index_size()`` at default knobs
reports the five fields it reported while directories were keyed by
token strings and ``(token, cell)`` tuples, and ``compare_methods_io``
reads the same pages on a fixed workload.  ``keyword-first``'s reads are
left out: it charges query tokens in set iteration order through an LRU
pool, so its physical reads move with ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import pytest

from repro import TokenWeighter, build_method
from repro.core.engine import METHOD_REGISTRY
from repro.datasets import generate_queries
from repro.extensions.predicates import DicePredicate, PredicateSearch
from repro.index.iomodel import compare_methods_io

#: corpus -> method -> (num_lists, num_postings, directory_bytes,
#: posting_bytes, page_bytes).
SIZES = {
    "twitter": {
        "grid": (320, 437, 3840, 3496, 3496),
        "hash-hybrid": (6012, 6293, 98458, 75516, 75516),
        "irtree": (14, 4122, 0, 123296, 123296),
        "keyword-first": (931, 5744, 11204, 22976, 22976),
        "naive": None,
        "planned": (1251, 6181, 15044, 49448, 49448),
        "predicate-token": (931, 5744, 11204, 45952, 45952),
        "seal": (3972, 6048, 95864, 72576, 72576),
        "spatial-first": (14, 400, 0, 57344, 57344),
        "token": (931, 5744, 11204, 45952, 45952),
    },
    "usa": {
        "grid": (289, 434, 3468, 3472, 3472),
        "hash-hybrid": (4877, 5356, 80803, 64272, 64272),
        "irtree": (14, 3042, 0, 106016, 106016),
        "keyword-first": (759, 4961, 9128, 19844, 19844),
        "naive": None,
        "planned": (1048, 5395, 12596, 43160, 43160),
        "predicate-token": (759, 4961, 9128, 39688, 39688),
        "seal": (2925, 5115, 70659, 61380, 61380),
        "spatial-first": (14, 400, 0, 57344, 57344),
        "token": (759, 4961, 9128, 39688, 39688),
    },
}

#: corpus -> method -> (logical reads, physical reads) through a
#: 16-page pool.
READS = {
    "twitter": {
        "grid": (17, 17),
        "hash-hybrid": (50, 50),
        "irtree": (121, 35),
        "predicate-token": (119, 117),
        "seal": (91, 90),
        "spatial-first": (34, 11),
        "token": (99, 98),
    },
    "usa": {
        "grid": (20, 17),
        "hash-hybrid": (41, 38),
        "irtree": (96, 28),
        "predicate-token": (102, 97),
        "seal": (78, 74),
        "spatial-first": (32, 10),
        "token": (82, 78),
    },
}


@pytest.fixture(scope="module", params=["twitter", "usa"])
def built(request, twitter_small, usa_small):
    corpus = twitter_small if request.param == "twitter" else usa_small
    weighter = TokenWeighter(obj.tokens for obj in corpus)
    methods = {name: build_method(corpus, name, weighter) for name in METHOD_REGISTRY}
    methods["predicate-token"] = PredicateSearch(corpus, DicePredicate(weighter), weighter)
    return request.param, corpus, methods


def test_every_index_size_is_pinned(built):
    kind, _, methods = built
    sizes = {}
    for name, method in methods.items():
        report = method.index_size()
        sizes[name] = report and (
            report.num_lists, report.num_postings, report.directory_bytes,
            report.posting_bytes, report.page_bytes,
        )
    assert sizes == SIZES[kind]


def test_io_model_reads_are_pinned(built):
    kind, corpus, methods = built
    queries = [
        query
        for regime, seed in (("small", 3), ("large", 4))
        for query in generate_queries(corpus, regime, num_queries=8, seed=seed,
                                      tau_r=0.3, tau_t=0.3)
    ]
    reports = compare_methods_io({name: methods[name] for name in READS[kind]}, queries,
                                 pool_pages=16)
    assert {name: (r.logical_reads, r.physical_reads) for name, r in reports.items()} == (
        READS[kind]
    )
