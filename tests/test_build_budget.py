"""Ratio guard on SEAL index construction cost (ROADMAP item 2a).

``seal`` build seconds over the seconds of a ``hash-hybrid`` build on
one seeded corpus.  A ratio, so host speed cancels.  The budget was set
against ``hash-hybrid`` itself, the other hybrid index: both builds are
single-threaded array kernels feeding one bulk load, where ``token``'s
build is a tenth of this one and moves whenever the single-scheme loader
does (seal / token read 7.0-8.2 while ``token`` staged a posting at a
time, 10.0-10.8 once it loaded columns).  Measured: 6.0-6.4 at this
corpus, so the guard sits at twice the measured ratio — loose enough for
a noisy host, an order of magnitude below what losing the kernels would
cost (the scalar per-node greedy stood at 93-140 × the staged ``token``
build here).

``hash-hybrid``'s build has since moved too: its grid half now comes
from ``GridScheme.from_corpus``'s one pass over the regions, where it
used to cover each region twice and sort per object, and it got 20-40 %
faster.  So the denominator is no longer that build but the work it
stood for, in a build that change left alone: ``irtree`` (an STR bulk
load and a token set per node) times :data:`HYBRID_IN_IRTREE_BUILDS`,
the ratio of the earlier ``hash-hybrid`` build to ``irtree``'s (3.9-4.9,
median 4.1, on one 2-core host, alone and inside the test suite).  The
budget stays 13 × that work, garbage collection included.

The two builds are timed in alternating rounds, each build once per
round, and each is the best of its :data:`ROUNDS`.  Every timed build
starts from a ``gc.collect()``, so neither pays for the garbage the
other (or, inside the suite, an earlier test) left behind; the
collector stays on during the build.  Timed back to back instead, the
few-millisecond ``irtree`` builds caught whatever the host was doing
in their half of the test, and the ratio read 4.95 and 9.28 in two
full-suite runs of one tree.
"""

from __future__ import annotations

import gc
import time

from repro import TokenWeighter, build_method
from repro.datasets import generate_twitter

NUM_OBJECTS = 3000
MAX_SEAL_OVER_HYBRID = 13.0
HYBRID_IN_IRTREE_BUILDS = 4.0


ROUNDS = 3


def _build_seconds(corpus, weighter, name: str) -> float:
    gc.collect()
    begin = time.perf_counter()
    build_method(corpus, name, weighter)
    return time.perf_counter() - begin


def test_seal_build_stays_within_budget_of_hash_hybrid_build():
    corpus = generate_twitter(NUM_OBJECTS, seed=17)
    weighter = TokenWeighter(obj.tokens for obj in corpus)
    irtree, seal = float("inf"), float("inf")
    for _ in range(ROUNDS):
        irtree = min(irtree, _build_seconds(corpus, weighter, "irtree"))
        seal = min(seal, _build_seconds(corpus, weighter, "seal"))
    hybrid = HYBRID_IN_IRTREE_BUILDS * irtree
    assert seal / hybrid < MAX_SEAL_OVER_HYBRID, (
        f"seal build {seal:.3f}s is {seal / hybrid:.1f}x the hash-hybrid work "
        f"{hybrid:.3f}s, {HYBRID_IN_IRTREE_BUILDS:g} irtree builds "
        f"(budget {MAX_SEAL_OVER_HYBRID}x)"
    )
