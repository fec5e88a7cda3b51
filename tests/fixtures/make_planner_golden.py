"""Regenerate ``planner_golden.json`` — run it at the commit whose
behaviour is the reference, never at the one under test:

    PYTHONPATH=<reference checkout>/src python tests/fixtures/make_planner_golden.py

It records, per query of a seeded workload over the perf ledger's four
regimes (large, small, spatial-only, textual-only; plus large regions at
loose thresholds, where prefixes run deep), what the default planner
portfolio chose, the work the chosen filter reported, the answers, and
every member's ``(lists, entries, candidates)`` estimate — floats
survive JSON exactly (``repr`` round-trips).  ``tests/test_probes.py``
replays the table on both index backends.  The committed file was written by commit e6f8f1e
(PR 16), the parent of the change that introduced ``probes()``; the
script refuses to write a table the two backends disagree on.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro import Rect
from repro.datasets import generate_queries, generate_twitter
from repro.exec.planner import PlannedSealSearch
from repro.index.columnar import BACKENDS
from repro.service.protocol import query_to_wire

#: ``generate_twitter`` arguments.  The space is density-scaled like the
#: ledger's corpus (side = 36 633 km · √(N / 10⁶)), so large regions span
#: several grid cells and every portfolio member wins some queries.
CORPUS = {
    "num_objects": 1500,
    "seed": 11,
    "space": [0.0, 0.0, 1418.79, 1418.79],
    "num_clusters": 8,
    "cluster_spread_fraction": 0.002,
}
KNOBS = {"granularity": 64, "mt": 8, "max_level": 6, "min_objects": 4}
#: (kind, tau_r, tau_t, query seed).
REGIMES = (
    ("large", 0.4, 0.4, 5),
    ("small", 0.4, 0.4, 6),
    ("small", 0.3, 0.0, 7),
    ("small", 0.0, 0.3, 8),
    ("large", 0.1, 0.1, 9),
)
QUERIES_PER_REGIME = 8


def table(backend: str) -> dict:
    corpus = generate_twitter(**{**CORPUS, "space": Rect(*CORPUS["space"])})
    planner = PlannedSealSearch(corpus, backend=backend, **KNOBS)
    queries = [
        query
        for kind, tau_r, tau_t, seed in REGIMES
        for query in generate_queries(
            corpus, kind, num_queries=QUERIES_PER_REGIME, seed=seed, tau_r=tau_r, tau_t=tau_t
        )
    ]
    rows = []
    for query in queries:
        estimates = {e.method: [e.lists, e.entries, e.candidates] for e in planner.plan(query)}
        result = planner.search(query)
        stats = result.stats
        rows.append(
            {
                "query": query_to_wire(query),
                "chosen": stats.method.partition(":")[2],
                "lists_probed": stats.lists_probed,
                "entries_retrieved": stats.entries_retrieved,
                "entries_matched": stats.entries_matched,
                "candidates": stats.candidates,
                "answers": result.answers,
                "estimates": estimates,
            }
        )
    return {"corpus": CORPUS, "knobs": KNOBS, "rows": rows}


def main() -> None:
    tables = [table(backend) for backend in BACKENDS]
    if any(other != tables[0] for other in tables[1:]):
        raise SystemExit("the index backends disagree; not a reference")
    out = Path(__file__).with_name("planner_golden.json")
    head = json.dumps({"corpus": CORPUS, "knobs": KNOBS}, sort_keys=True)
    rows = ",\n".join(json.dumps(row, sort_keys=True) for row in tables[0]["rows"])
    # One row per line, so a changed row is a one-line diff.
    out.write_text(f'{head[:-1]}, "rows": [\n{rows}\n]}}\n', encoding="utf-8")
    print(f"{out}: {len(tables[0]['rows'])} rows")


if __name__ == "__main__":
    main()
