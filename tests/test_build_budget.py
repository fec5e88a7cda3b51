"""Ratio guard on SEAL index construction cost (ROADMAP item 2a).

``seal`` build seconds over ``token`` build seconds on one seeded corpus.
A ratio, so host speed cancels; both builds are single-threaded and
interpreter-or-NumPy bound.  Measured when construction became array
kernels: 7.0-8.2 at this corpus (the scalar per-node greedy stood at
93-140 here, ≈ 50 at the ledger's 10k), so the guard sits at twice the
measured ratio — loose enough for a noisy host, an order of magnitude
below what losing the kernels would cost.
"""

from __future__ import annotations

import time

from repro import TokenWeighter, build_method
from repro.datasets import generate_twitter

NUM_OBJECTS = 3000
MAX_SEAL_OVER_TOKEN = 16.0


def _best_build_seconds(corpus, weighter, name: str, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        begin = time.perf_counter()
        build_method(corpus, name, weighter)
        best = min(best, time.perf_counter() - begin)
    return best


def test_seal_build_stays_within_budget_of_token_build():
    corpus = generate_twitter(NUM_OBJECTS, seed=17)
    weighter = TokenWeighter(obj.tokens for obj in corpus)
    token = _best_build_seconds(corpus, weighter, "token", repeats=3)
    seal = _best_build_seconds(corpus, weighter, "seal", repeats=2)
    assert seal / token < MAX_SEAL_OVER_TOKEN, (
        f"seal build {seal:.3f}s is {seal / token:.1f}x the token build {token:.3f}s "
        f"(budget {MAX_SEAL_OVER_TOKEN}x)"
    )
