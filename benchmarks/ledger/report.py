"""Printing, the JSON report, the driver's result line, and ``compare``."""

from __future__ import annotations

import json
import os
import platform
import subprocess
from typing import Dict, List

import numpy

from .harness import ROOT, WorkloadResult
from .metrics import REGISTRY, WHY


def environment() -> Dict[str, object]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"   # the driver's checkout is not a git repository
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def print_result(result: WorkloadResult) -> None:
    print(f"# {result.workload}  seed={result.seed}  scale={result.scale}  "
          f"passes={result.passes}  attempted={result.attempted}  failed={result.failed}")
    print(f"#   corpus sha256 {result.fingerprint['corpus']}")
    print(f"#   ops    sha256 {result.fingerprint['ops']}")
    for name, m in result.metrics.items():
        spread = f"  [q1 {m.q1:.6g}, q3 {m.q3:.6g}]" if m.q1 != m.q3 else ""
        print(f"{result.workload}  {REGISTRY[name].kind:<10}  {name:<44} "
              f"{m.value:>14.6g} {REGISTRY[name].unit}{spread}")


def as_document(results: List[WorkloadResult]) -> Dict[str, object]:
    return {
        "schema": 1,
        "environment": environment(),
        "workloads": {
            result.workload: {
                "why": WHY[result.workload],
                "seed": result.seed,
                "scale": result.scale,
                "fingerprint": result.fingerprint,
                "passes": result.passes,
                "attempted": result.attempted,
                "failed": result.failed,
                "spans": result.spans_path,
                "metrics": {
                    name: {"value": m.value, "q1": m.q1, "q3": m.q3, "samples": m.samples,
                           "unit": REGISTRY[name].unit, "kind": REGISTRY[name].kind}
                    for name, m in result.metrics.items()
                },
            }
            for result in results
        },
    }


def driver_line(result: WorkloadResult, trace: bool) -> str:
    """The contract's last line: every ``end_to_end`` metric of
    ``BENCHMARK.json`` untraced, every ``per_layer`` metric traced.  A
    per-layer metric this workload does not exercise reads 0."""
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {}
    for entry in contract["per_layer" if trace else "end_to_end"]:
        name = entry["name"]
        if name in result.metrics:
            value = result.metrics[name].value
        elif trace and result.workload not in REGISTRY[name].workloads:
            value = 0.0
        else:
            raise KeyError(f"{result.workload} did not measure {name}")
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    })


class Incomparable(ValueError):
    """Two reports that were not run on the same inputs, or do not hold
    the same metrics: no verdict would mean anything."""


def _load(path: str) -> Dict[str, dict]:
    with open(path) as handle:
        return json.load(handle)["workloads"]


def _mismatches(a: Dict[str, dict], b: Dict[str, dict]) -> List[str]:
    problems = [f"workload {name} is in one report only" for name in sorted(set(a) ^ set(b))]
    for workload in sorted(set(a) & set(b)):
        for key in ("seed", "scale", "fingerprint", "passes"):
            if a[workload][key] != b[workload][key]:
                problems.append(f"{workload}: {key} differs "
                                f"({a[workload][key]!r} vs {b[workload][key]!r})")
        for metric in REGISTRY.values():
            if metric.kind == "end_to_end" and workload in metric.workloads:
                for side, report in (("A", a), ("B", b)):
                    if metric.name not in report[workload]["metrics"]:
                        problems.append(f"{workload}: {metric.name} is missing from {side}")
    return problems


def compare(path_a: str, path_b: str) -> int:
    """Print both medians and B/A per workload × end-to-end metric;
    returns the number of ``worse`` rows.  Raises ``Incomparable`` for
    reports of different seeds, scales, inputs, pass counts or metrics."""
    a, b = _load(path_a), _load(path_b)
    problems = _mismatches(a, b)
    if problems:
        raise Incomparable("; ".join(problems))
    worse = 0
    print(f"{'workload':<14} {'metric':<28} {'A':>13} {'B':>13} {'B/A':>8}  bound  verdict")
    for workload in a:
        for metric in REGISTRY.values():
            if metric.kind != "end_to_end" or workload not in metric.workloads:
                continue
            ma = a[workload]["metrics"][metric.name]
            mb = b[workload]["metrics"][metric.name]
            verdict = _verdict(metric, ma, mb)
            worse += verdict == "worse"
            ratio = f"{mb['value'] / ma['value']:.3f}x" if ma["value"] else "-"
            print(f"{workload:<14} {metric.name:<28} {ma['value']:>13.6g} {mb['value']:>13.6g} "
                  f"{ratio:>8}  {metric.bound:<5}  {verdict}"
                  f"  (base A = {ma['value']:.6g} {metric.unit})")
    return worse


def _verdict(metric, a, b) -> str:
    """``unresolved`` when the reports cannot tell a difference of
    ``metric.bound`` from noise: a timing with one sample on either side
    has no spread at all, and one whose quartiles across passes are wider
    apart than the bound has too much."""
    def spread(m) -> float:
        return (m["q3"] - m["q1"]) / abs(m["value"]) if m["value"] else 0.0

    if metric.timing:
        if min(a["samples"], b["samples"]) < 2:
            return "unresolved"
        if max(spread(a), spread(b)) > metric.bound:
            return "unresolved"
    if metric.better == "lower":
        regressed = b["value"] > a["value"] * (1.0 + metric.bound)
    else:
        regressed = b["value"] < a["value"] * (1.0 - metric.bound)
    return "worse" if regressed else "ok"
