"""Regenerate ``snapshot_format9.pkl`` and its ``.npz`` sidecar — run it
at the commit whose snapshot layout is the reference, never at the one
under test:

    PYTHONPATH=<reference checkout>/src python tests/fixtures/make_snapshot_format9.py

It saves a segmented ``planned`` engine over :data:`NUM_OBJECTS`
``generate_twitter`` objects (whose edges are NumPy scalars as the
generator passes them) holding a base segment, one sealed segment, a
non-empty write buffer and tombstones.  ``tests/test_snapshot_values.py``
loads the committed pair and checks it answers :func:`workload` as
:func:`build_engine` does at the commit under test.

The committed pair was written by commit 35ddeb1, when every ``Rect``
and object pickled as its dataclass state (NumPy scalar edges and all).
"""

from __future__ import annotations

from pathlib import Path

from repro import Rect, SegmentedSealSearch
from repro.datasets import generate_queries, generate_twitter

#: ``generate_twitter`` arguments; the space is density-scaled like the
#: perf ledger's corpus (side = 36 633 km · √(N / 10⁶)).
NUM_OBJECTS = 200
CORPUS = {"seed": 13, "space": (0.0, 0.0, 518.07, 518.07), "num_clusters": 4,
          "cluster_spread_fraction": 0.002}
#: Objects in the base segment; the rest are inserted.
BASE = 160
BUFFER_CAPACITY = 32
#: Deleted oids: one in the base segment, one in the sealed segment.
DELETED = (3, 170)
#: (kind, tau_r, tau_t, query seed).
REGIMES = (("large", 0.1, 0.1, 5), ("small", 0.3, 0.0, 6), ("large", 0.0, 0.3, 7))
QUERIES_PER_REGIME = 6
SNAPSHOT = Path(__file__).with_name("snapshot_format9.pkl")


def corpus():
    return generate_twitter(NUM_OBJECTS, **{**CORPUS, "space": Rect(*CORPUS["space"])})


def build_engine() -> SegmentedSealSearch:
    """Base segment, one sealed segment, a buffer of
    ``NUM_OBJECTS - BASE - BUFFER_CAPACITY`` and :data:`DELETED`."""
    pairs = [(obj.region, obj.tokens) for obj in corpus()]
    engine = SegmentedSealSearch(pairs[:BASE], "planned", buffer_capacity=BUFFER_CAPACITY)
    for region, tokens in pairs[BASE:]:
        engine.insert(region, tokens)
    for oid in DELETED:
        engine.delete(oid)
    return engine


def workload():
    objects = corpus()
    return [
        query
        for kind, tau_r, tau_t, seed in REGIMES
        for query in generate_queries(
            objects, kind, num_queries=QUERIES_PER_REGIME, seed=seed, tau_r=tau_r, tau_t=tau_t
        )
    ]


def main() -> None:
    from repro.io.snapshot import save_engine

    engine = build_engine()
    save_engine(engine, SNAPSHOT)
    print(f"{SNAPSHOT}: {len(engine)} live objects, manifest {engine.snapshot_manifest()}")


if __name__ == "__main__":
    main()
