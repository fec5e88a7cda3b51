"""Figure 15 — hash-based vs hierarchical hybrid signatures vs index size.

The paper fixes τR = 0.4, τT = 0.1 and compares the two hybrid signature
families under *index-size constraints*, defined as "maximum numbers of
signature elements" (Section 5.2): the hash scheme meets a budget by
hashing (token, cell) pairs into that many buckets (Section 5.1), the
hierarchical scheme by capping each token's HSS grid allocation.

We therefore compare at matched element counts: each hierarchical
configuration (α scaling of per-token budgets) is measured, then a hash
index is built with exactly that many buckets.  Shape to reproduce: in
the constrained regime the hierarchical signatures answer queries with
fewer candidates — bucket collisions cost the hash scheme false
candidates, while HSS spends the same elements where the data lives.
(At generous budgets the collision penalty vanishes and the two
converge; the README's "Tests and benchmarks" section says how to rerun
this at other scales to see the crossover.)
"""

from __future__ import annotations

import pytest

from repro import build_method
from repro.bench import format_table, measure_workload

from benchmarks.conftest import GRANULARITIES, emit, scaled_granularity

TAU_R, TAU_T = 0.4, 0.1

#: (α, per-token cap) pairs spanning tight → generous element budgets.
HIERARCHICAL_CONFIGS = ((0.02, 128), (0.05, 256), (0.1, 512), (0.2, 1024))

#: Hash grid fixed at the paper's finest canonical granularity; the
#: budget knob is the bucket count, as in Section 5.1.
HASH_GRANULARITY = GRANULARITIES[-1]


@pytest.fixture(scope="module")
def matched_methods(twitter_corpus, twitter_weighter):
    """Build hierarchical indexes, then hash indexes at matching element
    counts."""
    pairs = []
    for alpha, cap in HIERARCHICAL_CONFIGS:
        hier = build_method(
            twitter_corpus, "seal", twitter_weighter,
            mt=cap, max_level=10, min_objects=4, budget_scaling=alpha,
        )
        elements = len(hier.index)
        hashed = build_method(
            twitter_corpus, "hash-hybrid", twitter_weighter,
            granularity=scaled_granularity(HASH_GRANULARITY), num_buckets=elements,
        )
        pairs.append((elements, hier, hashed))
    return pairs


def _panel(benchmark, matched_methods, queries, title):
    stamped = [q.with_thresholds(tau_r=TAU_R, tau_t=TAU_T) for q in queries]

    def run():
        rows = {}
        for elements, hier, hashed in matched_methods:
            mh = measure_workload(hashed, stamped)
            mm = measure_workload(hier, stamped)
            rows[f"budget={elements}"] = [
                round(hashed.index_size().total_mb, 2),
                round(mh.elapsed_ms, 3),
                round(mh.candidates, 1),
                round(hier.index_size().total_mb, 2),
                round(mm.elapsed_ms, 3),
                round(mm.candidates, 1),
            ]
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        format_table(
            title,
            "element budget",
            ["hash MB", "hash ms", "hash cand", "hier MB", "hier ms", "hier cand"],
            rows,
        )
    )


@pytest.mark.benchmark(group="fig15")
def test_fig15a_large_region(benchmark, matched_methods, twitter_large_queries):
    _panel(
        benchmark, matched_methods, list(twitter_large_queries),
        "Figure 15(a): hash vs hierarchical signatures, large-region (tauR=0.4, tauT=0.1)",
    )


@pytest.mark.benchmark(group="fig15")
def test_fig15b_small_region(benchmark, matched_methods, twitter_small_queries):
    _panel(
        benchmark, matched_methods, list(twitter_small_queries),
        "Figure 15(b): hash vs hierarchical signatures, small-region (tauR=0.4, tauT=0.1)",
    )
