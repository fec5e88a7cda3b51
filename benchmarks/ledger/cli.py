"""Command line of the perf ledger.

    ledger --workload NAME|all [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
    ledger compare A.json B.json

Prints every metric by name with its unit, then — as the last line of
standard output — the result object the benchmark driver reads.  Exits
non-zero when any operation failed (error, refusal, wrong answer), when
the inputs no longer match their pinned fingerprints, or when `compare`
finds a `worse` row or is given two reports of different inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from . import churn, wire
from .harness import ROOT, WorkloadResult
from .inputs import FingerprintMismatch, check_fingerprint, make_inputs
from .metrics import CANONICAL, CHURN, DEFAULT_SEED, WORKLOADS, Scale
from .report import Incomparable, as_document, compare, driver_line, print_result

#: What one pass of a wire workload takes on the build container: the
#: timed phase is ``--seconds / PASS_SECONDS`` whole passes, a count fixed
#: before the run starts, however long the host then takes over them.
PASS_SECONDS = 1.5


def run_workload(workload: str, seed: int, passes: int, trace: bool,
                 scale: Scale) -> WorkloadResult:
    """Generate one workload's inputs from ``seed``, run it, return its
    metrics; a traced run leaves its spans under ``.ledger_out/``."""
    inputs = make_inputs(workload, scale, seed)
    check_fingerprint(workload, scale, seed, inputs.fingerprint)
    result = WorkloadResult(workload, seed, scale.name, inputs.fingerprint)
    if workload == CHURN:
        recorder = churn.run(inputs, scale, trace, result)
    else:
        recorder = wire.run(workload, inputs, scale, passes, trace, result)
    result.put("failed_frac", result.failed / result.attempted)
    if recorder is not None:
        spans_path = ROOT / ".ledger_out" / f"spans-{workload}-{scale.name}-{seed}.jsonl"
        spans_path.parent.mkdir(exist_ok=True)
        recorder.write_jsonl(spans_path)
        result.spans_path = os.path.relpath(spans_path, ROOT)
    return result


def _pin_to_one_cpu() -> None:
    """Keep every thread of the run on one CPU.

    Under the GIL a closed loop of one client gains nothing from a
    second CPU, and on the build VM a hand-off to a thread whose vCPU
    has halted costs ~0.09 ms more than one on the same vCPU — for
    minutes at a time, then not (README "Host noise").  Four hand-offs
    per request made ``query_p50_ms`` bimodal, 0.34 or 0.70 ms.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _default_seconds() -> int:
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="ledger compare")
        parser.add_argument("a")
        parser.add_argument("b")
        args = parser.parse_args(argv[1:])
        try:
            return 1 if compare(args.a, args.b) else 0
        except Incomparable as exc:
            print(f"ledger compare: {exc}", file=sys.stderr)
            return 2

    parser = argparse.ArgumentParser(prog="ledger", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"timed phase, in passes of {PASS_SECONDS} s: at least one "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", help="write the full JSON report here (input of `compare`)")
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else _default_seconds()
    passes = max(1, round(seconds / PASS_SECONDS))
    names = WORKLOADS if args.workload == "all" else (args.workload,)

    _pin_to_one_cpu()
    results = []
    try:
        for name in names:
            result = run_workload(name, args.seed, passes, bool(args.trace), CANONICAL)
            results.append(result)
            print_result(result)
            print(driver_line(result, bool(args.trace)), flush=True)
    except FingerprintMismatch as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 2
    if args.out:
        Path(args.out).write_text(json.dumps(as_document(results), indent=1) + "\n")
    return 1 if any(result.failed for result in results) else 0
