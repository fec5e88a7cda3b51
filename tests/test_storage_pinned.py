"""Table 1's storage model, pinned to fixed numbers.

Element codes changed how an index keys its lists, not what the storage
model charges: every registry method's ``index_size()`` at default knobs
reports the five fields it reported while directories were keyed by
token strings and ``(token, cell)`` tuples.
"""

from __future__ import annotations

import pytest

from repro import TokenWeighter, build_method
from repro.core.engine import METHOD_REGISTRY

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
        "seal": (2925, 5115, 70659, 61380, 61380),
        "spatial-first": (14, 400, 0, 57344, 57344),
        "token": (759, 4961, 9128, 39688, 39688),
    },
}


@pytest.fixture(scope="module", params=["twitter", "usa"])
def built(request, twitter_small, usa_small):
    corpus = twitter_small if request.param == "twitter" else usa_small
    weighter = TokenWeighter(obj.tokens for obj in corpus)
    methods = {name: build_method(corpus, name, weighter) for name in METHOD_REGISTRY}
    return request.param, methods


def test_every_index_size_is_pinned(built):
    kind, methods = built
    sizes = {}
    for name, method in methods.items():
        report = method.index_size()
        sizes[name] = report and (
            report.num_lists, report.num_postings, report.directory_bytes,
            report.posting_bytes, report.page_bytes,
        )
    assert sizes == SIZES[kind]
