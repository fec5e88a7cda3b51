"""Shared helpers for the durability suites (not collected as tests).

The oracle here encodes the load-bearing PR 3 equivalence contract —
a from-scratch ``build_method`` over the live set, built with the
engine's *own* weighter — so the durable-engine and crash-injection
suites must share one copy rather than drift apart.
"""

from __future__ import annotations

from pathlib import Path

from repro import SpatioTextualObject, build_method, execute_query
from repro.exec.durable import DurableSegmentedSealSearch


def snapshot_of(root: Path) -> Path:
    return root / "engine.pkl"


def wal_of(root: Path) -> Path:
    return root / "engine.wal"


def make_durable(
    root: Path,
    *,
    method: str = "token",
    sync: str = "always",
    buffer_capacity: int = 4,
    **params,
) -> DurableSegmentedSealSearch:
    """A fresh durable engine rooted at ``root`` (engine.pkl/engine.wal)."""
    return DurableSegmentedSealSearch.create(
        method=method,
        wal_path=wal_of(root),
        snapshot_path=snapshot_of(root),
        sync=sync,
        buffer_capacity=buffer_capacity,
        **params,
    )


def make_uncheckpointed(
    root: Path, *, params: dict, method: str = "token", buffer_capacity: int = 4
):
    """A generation-0 durable engine (``method`` at its defaults) with no
    snapshot yet, whose WAL config record carries ``params`` verbatim —
    whatever an earlier version of this library (or anyone else) may
    have written there."""
    from repro import SegmentedSealSearch
    from repro.io.wal import WriteAheadLog

    engine = SegmentedSealSearch((), method, buffer_capacity=buffer_capacity)
    wal = WriteAheadLog.create(wal_of(root), config={**engine.config(), "params": params})
    return DurableSegmentedSealSearch(engine, wal, snapshot_path=snapshot_of(root))


#: ``(method, params)`` of config records earlier versions wrote with a
#: knob this one drops, every value of which answered alike: an index
#: ``backend`` (`build --segmented --wal --backend …`, before there was
#: one posting store), ``prefix_pruning`` (the plain Sig-Filter) and
#: ``order`` (alternative grid cell orders).
LEGACY_CONFIGS = [
    ("token", {"backend": "python"}),
    ("token", {"backend": "columnar"}),
    ("token", {"prefix_pruning": False}),
    ("grid", {"prefix_pruning": False}),
    ("planned", {"prefix_pruning": False}),
    ("grid", {"order": "hilbert"}),
    ("hash-hybrid", {"order": "count_desc"}),
]


def legacy_config_id(value) -> str:
    """Test id part of a :data:`LEGACY_CONFIGS` entry."""
    if isinstance(value, str):
        return value
    return "-".join(f"{knob}={setting}" for knob, setting in value.items())


def fill(engine, count: int = 9, start: int = 0) -> None:
    from repro import Rect

    for i in range(start, start + count):
        engine.insert(Rect(i, 0, i + 2, 2), {"coffee", f"tag{i % 3}"})


def oracle_answers(engine, query, method: str = "token", **params):
    """From-scratch build over the live set with the engine's weighter,
    answers mapped back to global oids."""
    live = sorted(
        (engine.object(oid) for oid in engine.engine._live), key=lambda o: o.oid
    )
    if not live:
        return []
    local = [SpatioTextualObject(i, o.region, o.tokens) for i, o in enumerate(live)]
    oracle = build_method(local, method, engine.weighter, **params)
    return sorted(live[i].oid for i in execute_query(oracle, query).answers)
