"""Regenerate ``planner_golden.json`` — run it at the commit whose
behaviour is the reference, never at the one under test:

    PYTHONPATH=<reference checkout>/src python tests/fixtures/make_planner_golden.py

It records, per query of a seeded workload over the perf ledger's four
regimes (large, small, spatial-only, textual-only; plus large regions at
loose thresholds, where prefixes run deep): the answers; the work each
portfolio member reports when it is run directly (``members``), so the
probe behaviour of all four filters stays pinned whatever the planner
picks; what the default planner chose; and every member's ``(lists,
entries, candidates)`` estimate — floats survive JSON exactly (``repr``
round-trips).  ``tests/test_probes.py`` replays the table.

The committed file's ``query``, ``answers`` and ``members`` columns were
written by commit 5c18c8d (PR 18), the parent of the change that made
the planner price every member in O(|prefix|) and ship fitted default
coefficients (PR 20).  That change moved what it meant to move —
``seal``'s estimate and, with the coefficients, ``chosen`` — and
re-recorded those two with

    PYTHONPATH=src python tests/fixtures/make_planner_golden.py --replan

which refuses to write unless every other value (answers, every member's
work, the ``token``, ``grid`` and ``hash-hybrid`` estimates bit for bit)
reproduces the committed table.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro import Rect
from repro.datasets import generate_queries, generate_twitter
from repro.exec.planner import PlannedSealSearch
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
#: The work a filter reports for one query (``SearchStats`` counters).
COUNTERS = ("lists_probed", "entries_retrieved", "entries_matched", "candidates")


def table() -> dict:
    corpus = generate_twitter(**{**CORPUS, "space": Rect(*CORPUS["space"])})
    planner = PlannedSealSearch(corpus, **KNOBS)
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
        members = {}
        for name, member in planner.methods.items():
            direct = member.search(query)
            if direct.answers != result.answers:
                raise SystemExit(f"{name} and the planner disagree; not a reference")
            members[name] = {counter: getattr(direct.stats, counter) for counter in COUNTERS}
        rows.append(
            {
                "query": query_to_wire(query),
                "answers": result.answers,
                "members": members,
                "chosen": result.stats.method.partition(":")[2],
                "estimates": estimates,
            }
        )
    return {"corpus": CORPUS, "knobs": KNOBS, "rows": rows}


def _without_plan(table: dict) -> list:
    """The rows minus what ``--replan`` may move."""
    return [
        {
            **{key: value for key, value in row.items() if key != "chosen"},
            "estimates": {m: e for m, e in row["estimates"].items() if m != "seal"},
        }
        for row in table["rows"]
    ]


def main() -> None:
    built = table()
    out = Path(__file__).with_name("planner_golden.json")
    if sys.argv[1:] == ["--replan"]:
        if _without_plan(built) != _without_plan(json.loads(out.read_text("utf-8"))):
            raise SystemExit("more than `chosen` and seal's estimate moved; not a replan")
    head = json.dumps({"corpus": CORPUS, "knobs": KNOBS}, sort_keys=True)
    rows = ",\n".join(json.dumps(row, sort_keys=True) for row in built["rows"])
    # One row per line, so a changed row is a one-line diff.
    out.write_text(f'{head[:-1]}, "rows": [\n{rows}\n]}}\n', encoding="utf-8")
    print(f"{out}: {len(built['rows'])} rows")


if __name__ == "__main__":
    main()
