"""Table 1 — data statistics and index sizes.

Reproduces, at bench scale, the paper's Table 1 rows for both datasets:
object count, average region area, entire-space area, average token
count, data size, and the sizes of the IR-tree, TokenInv, GridInv(1024),
HashInv(1024) and HierarchicalInv indexes.  The benchmark rows time index
*construction* (not reported in the paper but useful), while the emitted
table carries the size comparison the paper makes:

    GridInv  <  TokenInv  <  HierarchicalInv  <  HashInv  <  IR-tree-ish

(The IR-tree's blow-up comes from re-indexing every token once per tree
level; HashInv's from the token × cell cross product.)
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import build_method
from repro.bench import format_table
from repro.geometry.rect import mbr_of

from benchmarks.conftest import emit, scaled_granularity

#: Paper granularity 1024, mapped to the bench space (same cell size
#: relative to the data; see conftest.scaled_granularity).
GRID_GRANULARITY = scaled_granularity(1024)

_INDEX_BUILDERS = {
    "IR-tree": lambda objs, w: build_method(objs, "irtree", w),
    "TokenInv": lambda objs, w: build_method(objs, "token", w),
    "GridInv(1024)": lambda objs, w: build_method(
        objs, "grid", w, granularity=GRID_GRANULARITY
    ),
    "HashInv(1024)": lambda objs, w: build_method(
        objs, "hash-hybrid", w, granularity=GRID_GRANULARITY, num_buckets=1 << 20
    ),
    "HierarchicalInv": lambda objs, w: build_method(
        objs, "seal", w, mt=32, max_level=8, min_objects=8
    ),
}

_sizes: dict = {"Twitter": {}, "USA": {}}
_stats: dict = {}


def _data_size_mb(objects) -> float:
    """Raw data footprint: 32-byte rect + UTF-8 tokens per object."""
    total = 0
    for obj in objects:
        total += 32 + sum(len(t.encode()) + 1 for t in obj.tokens)
    return total / 1048576.0


def _collect_stats(name, objects):
    areas = np.array([o.region.area for o in objects])
    tokens = np.array([len(o.tokens) for o in objects])
    space = mbr_of([o.region for o in objects])
    _stats[name] = {
        "Object number": len(objects),
        "Avg region area (km^2)": round(float(areas.mean()), 2),
        "Entire space (km^2)": round(space.area),
        "Avg token number": round(float(tokens.mean()), 1),
        "Data size (MB)": round(_data_size_mb(objects), 2),
    }


@pytest.mark.parametrize("index_name", list(_INDEX_BUILDERS))
def test_table1_twitter_index_build(benchmark, twitter_corpus, twitter_weighter, index_name):
    build = _INDEX_BUILDERS[index_name]
    method = benchmark.pedantic(
        lambda: build(twitter_corpus, twitter_weighter), rounds=1, iterations=1
    )
    report = method.index_size()
    _sizes["Twitter"][index_name] = report


@pytest.mark.parametrize("index_name", list(_INDEX_BUILDERS))
def test_table1_usa_index_build(benchmark, usa_corpus, usa_weighter, index_name):
    build = _INDEX_BUILDERS[index_name]
    method = benchmark.pedantic(
        lambda: build(usa_corpus, usa_weighter), rounds=1, iterations=1
    )
    report = method.index_size()
    _sizes["USA"][index_name] = report


def test_table1_report(benchmark, twitter_corpus, usa_corpus):
    def build_report():
        _collect_stats("Twitter", twitter_corpus)
        _collect_stats("USA", usa_corpus)
        stat_rows = {
            key: [_stats["Twitter"][key], _stats["USA"][key]] for key in _stats["Twitter"]
        }
        size_rows = {
            index_name: [
                round(_sizes[ds][index_name].total_mb, 2) if index_name in _sizes[ds] else ""
                for ds in ("Twitter", "USA")
            ]
            for index_name in _INDEX_BUILDERS
        }
        posting_rows = {
            index_name: [
                _sizes[ds][index_name].num_postings if index_name in _sizes[ds] else ""
                for ds in ("Twitter", "USA")
            ]
            for index_name in _INDEX_BUILDERS
        }
        return stat_rows, size_rows, posting_rows

    stat_rows, size_rows, posting_rows = benchmark.pedantic(build_report, rounds=1, iterations=1)
    emit(format_table("Table 1a: data statistics", "statistic", ["Twitter", "USA"], stat_rows))
    emit(format_table("Table 1b: index sizes (MB)", "index", ["Twitter", "USA"], size_rows))
    emit(
        format_table(
            "Table 1c: index postings (count)", "index", ["Twitter", "USA"], posting_rows
        )
    )
