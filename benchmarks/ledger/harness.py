"""Shared measurement plumbing: the closed loop, pass statistics, results."""

from __future__ import annotations

import random
import resource
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import Query, SealError

from repro.io.snapshot import load_engine, save_engine, sidecar_path

from .metrics import REGISTRY

#: Repository root (``benchmarks/ledger/`` is two levels down).
ROOT = Path(__file__).resolve().parents[2]


class HostSpeed:
    """How slow the host is running, as a factor of a reference speed.

    The build container's CPU changes speed by 15-100 % for spells of
    5-30 s (README "Host noise"): forty consecutive raw passes of one
    process had quartiles 15-40 % of their median apart, which no median
    over a ten-second run survives.  So the harness times a fixed
    interpreter-bound loop every ``INTERVAL`` seconds between operations
    — half integer arithmetic, half a walk over its own scattered
    objects, because a busy sibling CPU slows the two differently and
    the program under test does both — and ``factor`` gives the mean of
    loop time / ``REFERENCE_S`` over any stretch of the run.  A pass's
    statistics, or one long operation's time, are divided by it:
    milliseconds on a host running at the reference speed.
    ``REFERENCE_S`` only fixes that unit (the loop on this container at
    its faster speed); numbers from one host compare with each other
    whatever its value.  ``setup_s`` and the build times are single
    uninterruptible calls before any sample can be taken and stay raw.
    """

    INTERVAL = 0.1
    SPINS = 50_000
    CELLS = 30_000         # ~10 MB of small objects: past the L2 cache
    STRIDE = 3_000         # cells visited per sample
    REFERENCE_S = 0.0032

    def __init__(self) -> None:
        rng = random.Random(0)
        self._cells = [
            (rng.random(), rng.random(), frozenset(rng.sample(range(64), 4)))
            for _ in range(self.CELLS)
        ]
        self._order = list(range(self.CELLS))
        rng.shuffle(self._order)
        self._probe = frozenset(range(0, 64, 3))
        self._cursor = 0
        self._times: List[float] = []
        self._factors: List[float] = []
        self._next = 0.0
        self._taken = time.perf_counter()
        #: Seconds spent sampling so far: a caller timing a stretch that
        #: ticks subtracts what was spent inside it.
        self.spent = 0.0
        self.sample()

    def sample(self) -> None:
        entered = time.perf_counter()
        cells, probe = self._cells, self._probe
        walk = self._order[self._cursor: self._cursor + self.STRIDE]
        self._cursor = (self._cursor + self.STRIDE) % (self.CELLS - self.STRIDE)
        begin = time.perf_counter()
        total = 0
        for i in range(self.SPINS):
            total += i * i
        for i in walk:
            low, high, tokens = cells[i]
            if low < high:
                total += len(tokens & probe)
        end = time.perf_counter()
        self._times.append((begin + end) / 2.0)
        self._factors.append((end - begin) / self.REFERENCE_S)
        self._next = end + self.INTERVAL
        self.spent += end - entered

    def tick(self) -> None:
        """Call between operations: samples when the last one is stale."""
        if time.perf_counter() >= self._next:
            self.sample()

    def factor(self, begin: float, end: float) -> float:
        """The mean factor over ``[begin, end]``: linear between samples,
        flat before the first and after the last — so an operation that
        ran for seconds is judged by the samples either side of it."""
        times = np.asarray(self._times)
        inside = times[(times > begin) & (times < end)]
        grid = np.concatenate(([begin], inside, [end]))
        values = np.interp(grid, times, self._factors)
        if end <= begin:
            return float(values[0])
        return float(((values[:-1] + values[1:]) / 2.0 * np.diff(grid)).sum() / (end - begin))

    def take(self) -> float:
        """The mean factor over the stretch since the last take."""
        self.sample()
        begin, self._taken = self._taken, time.perf_counter()
        return self.factor(begin, self._taken)

    def timed(self, fn: Callable, *args) -> Tuple[object, float]:
        """``(fn(*args), normalised seconds)`` of one call made between
        operations; a call longer than ``INTERVAL`` gets a fresh sample
        after it, a shorter one rides on the samples around it."""
        self.tick()
        begin = time.perf_counter()
        value = fn(*args)
        end = time.perf_counter()
        self.tick()
        return value, (end - begin) / self.factor(begin, end)


@dataclass
class Measurement:
    """One metric of one run: the median over its samples (one per pass)
    and their quartiles; one sample has no spread to report."""

    value: float
    q1: float
    q3: float
    samples: int

    @classmethod
    def single(cls, value: float) -> "Measurement":
        value = float(value)
        return cls(value, value, value, 1)

    @classmethod
    def over_passes(cls, values: Sequence[float]) -> "Measurement":
        values = [float(v) for v in values]
        if len(values) < 2:
            return cls.single(values[0])
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        return cls(median, q1, q3, len(values))


@dataclass
class WorkloadResult:
    workload: str
    seed: int
    scale: str
    fingerprint: Dict[str, str]
    attempted: int = 0
    failed: int = 0
    passes: int = 0
    metrics: Dict[str, Measurement] = field(default_factory=dict)
    spans_path: Optional[str] = None

    def put_all(self, values: Dict[str, object]) -> None:
        for name, value in values.items():
            self.put(name, value)

    def put(self, name: str, measurement) -> None:
        if name not in REGISTRY:
            raise KeyError(f"metric {name!r} is not in the ledger's registry")
        if not isinstance(measurement, Measurement):
            measurement = Measurement.single(measurement)
        self.metrics[name] = measurement

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def percentile(sorted_values: Sequence[float], q: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def closed_loop(
    send: Callable[[Query], object],
    queries: Sequence[Query],
    sequence: Sequence[int],
    expected: Sequence[List[int]],
    speed: HostSpeed,
) -> Tuple[List[float], int, float]:
    """One client, next request after the previous reply.

    Returns ``(latencies, failed, wall)`` in raw seconds, the wall
    without the host-speed samples taken inside it; an error, a refusal
    and a wrong answer each count as one failed op.
    """
    latencies = [0.0] * len(sequence)
    failed = 0
    clock = time.perf_counter
    started = clock() - speed.spent
    for slot, index in enumerate(sequence):
        speed.tick()
        begin = clock()
        try:
            answers = send(queries[index]).answers
        except SealError:
            answers = None
        latencies[slot] = clock() - begin
        if answers != expected[index]:
            failed += 1
    return latencies, failed, clock() - speed.spent - started


def latency_row(latencies: List[float], wall: float) -> Dict[str, float]:
    """Raw pass statistics of one closed loop that took ``wall`` seconds."""
    ordered = sorted(latencies)
    return {
        "query_p50_ms": percentile(ordered, 0.50) * 1e3,
        "query_p99_ms": percentile(ordered, 0.99) * 1e3,
        "query_qps": len(ordered) / wall,
    }


def at_reference_speed(raw: Dict[str, float], factor: float) -> Dict[str, float]:
    """Raw timings taken while the host ran ``factor`` times slower than
    the reference, as they would read at the reference speed."""
    return {
        name: value * factor if REGISTRY[name].unit == "1/s" else value / factor
        for name, value in raw.items()
    }


def put_pass_medians(result: WorkloadResult, rows: List[Dict[str, float]]) -> None:
    result.passes = len(rows)
    for name in rows[0]:
        result.put(name, Measurement.over_passes([row[name] for row in rows]))


def work_counts(stats: Sequence) -> Dict[str, float]:
    """Per-query means of the engine's own ``SearchStats`` counters
    (exact for a seed: they count work, not time)."""
    n = len(stats)
    total = {
        name: sum(getattr(one, name) for one in stats)
        for name in ("lists_probed", "entries_retrieved", "candidates", "results")
    }
    return {
        "results_per_query": total["results"] / n,
        "index.lists_probed": total["lists_probed"] / n,
        "index.entries_retrieved": total["entries_retrieved"] / n,
        "filters.candidates": total["candidates"] / n,
        "filters.precision": total["results"] / total["candidates"] if total["candidates"] else 1.0,
    }


def service_counters(metrics: Dict[str, object]) -> Dict[str, float]:
    """The cache and admission counters of one ``service.metrics()``."""
    cache = metrics["cache"]
    return {
        "service.cache.hit_rate": cache["hit_rate"],
        "service.cache.evictions": cache["evictions"],
        "service.cache.invalidated": cache["invalidated"],
        "service.admission.rejected": metrics["admission"]["rejected"],
    }


def probe_snapshot(engine, path: Path, speed: HostSpeed, result: WorkloadResult) -> None:
    """``save_engine`` / ``load_engine`` as direct timed calls."""
    result.put("io.snapshot.save_s", speed.timed(save_engine, engine, path)[1])
    result.put("io.snapshot.load_s", speed.timed(load_engine, path)[1])
    sidecar = sidecar_path(path)
    result.put("io.snapshot.bytes",
               path.stat().st_size + (sidecar.stat().st_size if sidecar.exists() else 0))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def mean_us(speed: HostSpeed, fn: Callable[[], object], calls: int, repeats: int = 5) -> float:
    """Median over ``repeats`` of the mean normalised µs per ``fn()``."""
    def burst() -> None:
        for _ in range(calls):
            fn()

    return statistics.median(
        speed.timed(burst)[1] / calls * 1e6 for _ in range(repeats)
    )


@contextmanager
def scratch_dir() -> Iterator[Path]:
    """A throwaway directory inside the checkout (WALs, snapshots)."""
    parent = ROOT / ".ledger_scratch"
    parent.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=parent))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
