"""Regenerate ``planner_golden.json`` — run it at the commit whose
behaviour is the reference, never at the one under test:

    PYTHONPATH=<reference checkout>/src python tests/fixtures/make_planner_golden.py

It records, per query of a seeded workload over the perf ledger's four
regimes (large, small, spatial-only, textual-only; plus large regions at
loose thresholds, where prefixes run deep): the answers, and the work
each of the four signature filters (``token``, ``grid``,
``hash-hybrid``, ``seal``) reports when it is built with
``build_method`` and run directly (``members``), so the probe behaviour
of all four stays pinned whichever one a planner picks.
``tests/test_probes.py`` replays the table.

The committed ``query``, ``answers`` and ``members`` columns were
written by commit 5c18c8d (PR 18) and have been replayed unchanged
since.  Rows once also held the cost-model planner's choice and
estimates; those columns went with the cost model.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro import Rect, TokenWeighter, build_method
from repro.datasets import generate_queries, generate_twitter
from repro.service.protocol import query_to_wire

#: ``generate_twitter`` arguments.  The space is density-scaled like the
#: ledger's corpus (side = 36 633 km · √(N / 10⁶)), so large regions span
#: several grid cells.
CORPUS = {
    "num_objects": 1500,
    "seed": 11,
    "space": [0.0, 0.0, 1418.79, 1418.79],
    "num_clusters": 8,
    "cluster_spread_fraction": 0.002,
}
KNOBS = {"granularity": 64, "mt": 8, "max_level": 6, "min_objects": 4}
#: The four signature filters, each built with the knobs it accepts.
FILTERS = ("token", "grid", "hash-hybrid", "seal")
#: (kind, tau_r, tau_t, query seed).
REGIMES = (
    ("large", 0.4, 0.4, 5),
    ("small", 0.4, 0.4, 6),
    ("small", 0.3, 0.0, 7),
    ("small", 0.0, 0.3, 8),
    ("large", 0.1, 0.1, 9),
)
QUERIES_PER_REGIME = 8
#: The work a filter reports for one query (``SearchStats`` counters).
COUNTERS = ("lists_probed", "entries_retrieved", "entries_matched", "candidates")


def build_filters(corpus) -> dict:
    """The four filters over ``corpus`` and one weighter, at :data:`KNOBS`."""
    from repro.core.engine import accepted_params

    weighter = TokenWeighter(obj.tokens for obj in corpus)
    return {
        name: build_method(corpus, name, weighter, **accepted_params(name, KNOBS))
        for name in FILTERS
    }


def table() -> dict:
    corpus = generate_twitter(**{**CORPUS, "space": Rect(*CORPUS["space"])})
    filters = build_filters(corpus)
    queries = [
        query
        for kind, tau_r, tau_t, seed in REGIMES
        for query in generate_queries(
            corpus, kind, num_queries=QUERIES_PER_REGIME, seed=seed, tau_r=tau_r, tau_t=tau_t
        )
    ]
    rows = []
    for query in queries:
        results = {name: method.search(query) for name, method in filters.items()}
        answers = {tuple(result.answers) for result in results.values()}
        if len(answers) != 1:
            raise SystemExit(f"the filters disagree on {query}; not a reference")
        rows.append(
            {
                "query": query_to_wire(query),
                "answers": list(answers.pop()),
                "members": {
                    name: {counter: getattr(result.stats, counter) for counter in COUNTERS}
                    for name, result in results.items()
                },
            }
        )
    return {"corpus": CORPUS, "knobs": KNOBS, "rows": rows}


def main() -> None:
    built = table()
    out = Path(__file__).with_name("planner_golden.json")
    head = json.dumps({"corpus": CORPUS, "knobs": KNOBS}, sort_keys=True)
    rows = ",\n".join(json.dumps(row, sort_keys=True) for row in built["rows"])
    # One row per line, so a changed row is a one-line diff.
    out.write_text(f'{head[:-1]}, "rows": [\n{rows}\n]}}\n', encoding="utf-8")
    print(f"{out}: {len(built['rows'])} rows")


if __name__ == "__main__":
    main()
