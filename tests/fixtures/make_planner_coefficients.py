"""Refit ``repro.exec.planner.DEFAULT_COEFFICIENTS`` — the planner's own
record → fit workflow on the perf ledger's two uncached query workloads:

    PYTHONPATH=src:. python tests/fixtures/make_planner_coefficients.py

It builds the shipped default engine (``build_method(corpus, "planned",
weighter)``) over the ledger's canonical corpus at the ledger's pinned
seed, switches recording mode on, and runs every query of
``fig16_large`` and ``mixed_regimes`` through it ``ROUNDS`` times.  A
single timing on a shared host spreads ± 30 %, so each member's observed
time for a query is the minimum over the rounds; ``fit_coefficients``
turns those rows into one coefficient row per portfolio member, printed
as the literal to paste into ``exec/planner.py``.  Rerun it when a
member's ``estimate_work`` or its filter step changes what a unit of
predicted work costs.
"""

from __future__ import annotations

import os
import tempfile

from benchmarks.ledger.inputs import query_inputs
from benchmarks.ledger.metrics import CANONICAL, DEFAULT_SEED, FIG16, MIXED
from repro import TokenWeighter, build_method
from repro.exec.planner import fit_coefficients

ROUNDS = 5


def main() -> None:
    if hasattr(os, "sched_setaffinity"):  # one CPU, like the ledger's runs
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workloads = [query_inputs(name, CANONICAL, DEFAULT_SEED) for name in (FIG16, MIXED)]
    corpus = workloads[0].corpus  # one seed, one scale: the same corpus
    queries = [query for inputs in workloads for query in inputs.queries]
    planner = build_method(corpus, "planned", TokenWeighter(obj.tokens for obj in corpus))
    with tempfile.TemporaryDirectory() as scratch:
        planner.start_recording(os.path.join(scratch, "rows.jsonl"))
        for _ in range(ROUNDS):
            for query in queries:
                planner.search(query)
    recorded = planner.recorded_rows
    rows = recorded[: len(queries)]
    for later in range(len(queries), len(recorded), len(queries)):
        for row, again in zip(rows, recorded[later: later + len(queries)]):
            for name, truth in row["observed"].items():
                truth["seconds"] = min(truth["seconds"], again["observed"][name]["seconds"])
    fitted = fit_coefficients(rows, methods=tuple(planner.methods))
    print(f"# {len(rows)} queries x {ROUNDS} rounds, seed {DEFAULT_SEED}, N = {len(corpus)}")
    for name, values in fitted.items():
        print(f'    "{name}": ({", ".join(repr(float(f"{value:.4g}")) for value in values)}),')


if __name__ == "__main__":
    main()
