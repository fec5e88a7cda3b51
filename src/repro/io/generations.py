"""Snapshot generations: the cross-process edition of the epoch counter.

Inside one process, :class:`~repro.service.service.QueryService` bumps
an epoch integer and swaps an object reference.  Across processes there
is no shared reference to swap — what the supervisor and its workers
share is a *directory*, and this module gives that directory the same
semantics:

* a **generation** is one immutable snapshot (plus sidecar) the format-6
  loader can ``load_engine(mmap=True)`` — published once, never mutated;
* ``CURRENT`` is a tiny JSON pointer file naming the active generation,
  replaced atomically (:mod:`repro.io.atomic`), so a worker booting at
  any moment reads either the old pointer or the new one, never a torn
  one;
* workers *discover* their engine: they read ``CURRENT`` at boot and
  memory-map the snapshot it names — N workers share one copy of the
  columnar arrays through the page cache;
* a publish bumps the generation number monotonically; the supervisor
  then recycles workers onto it, which is the cross-process epoch bump.

Generations published from a live engine are written into the serving
directory as ``gen-NNNNNN.pkl``; publishing an existing snapshot file
records its absolute path instead of copying gigabytes.  Old in-
directory generations are pruned once no worker can be pinned to them.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core.errors import SealError
from repro.io.atomic import atomic_write_text
from repro.io.snapshot import save_engine, sidecar_path, validate_snapshot

#: The pointer file naming the active generation.
CURRENT_NAME = "CURRENT"

#: In-directory generation snapshots: ``gen-000001.pkl`` etc.
GENERATION_PREFIX = "gen-"


class GenerationError(SealError, RuntimeError):
    """A serving directory's generation state is missing or corrupt."""


def read_current(directory: "str | Path") -> Dict[str, Any]:
    """The ``CURRENT`` pointer document of a serving directory.

    Returns ``{"generation": int, "snapshot": str}`` — ``snapshot`` is
    either a bare filename inside the directory or an absolute path.

    Raises:
        GenerationError: No pointer file, or a corrupt/incomplete one.
    """
    pointer = Path(directory) / CURRENT_NAME
    if not pointer.exists():
        raise GenerationError(
            f"no {CURRENT_NAME} pointer in {directory}; publish a snapshot first"
        )
    try:
        document = json.loads(pointer.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise GenerationError(f"corrupt {pointer}: {exc}") from exc
    if (
        not isinstance(document, dict)
        or not isinstance(document.get("generation"), int)
        or not isinstance(document.get("snapshot"), str)
    ):
        raise GenerationError(
            f"{pointer} must carry an integer 'generation' and a 'snapshot' path"
        )
    return document


def current_snapshot(directory: "str | Path") -> Tuple[int, Path]:
    """The active ``(generation, snapshot path)`` a worker should serve.

    Raises:
        GenerationError: No pointer, or the snapshot it names is gone.
    """
    directory = Path(directory)
    document = read_current(directory)
    snapshot = Path(document["snapshot"])
    if not snapshot.is_absolute():
        snapshot = directory / snapshot
    if not snapshot.exists():
        raise GenerationError(
            f"{CURRENT_NAME} names {snapshot}, which does not exist "
            "(snapshot and pointer must be published together)"
        )
    return document["generation"], snapshot


def publish_snapshot(
    directory: "str | Path",
    *,
    source_path: "str | Path | None" = None,
    engine: Any = None,
) -> Tuple[int, Path]:
    """Publish the next generation and atomically repoint ``CURRENT``.

    Exactly one source: an ``engine`` object (saved into the directory
    as ``gen-NNNNNN.pkl``) or an existing ``source_path`` snapshot
    (validated, then referenced by absolute path — no copy).  The
    snapshot is durably in place *before* the pointer flips, so a crash
    between the two leaves the old generation serving.

    Returns:
        The new ``(generation, snapshot path)``.

    Raises:
        GenerationError: Neither or both sources given.
        SnapshotError: ``source_path`` is not a loadable snapshot.
    """
    directory = Path(directory)
    if (engine is None) == (source_path is None):
        raise GenerationError("publish exactly one of engine= or source_path=")
    directory.mkdir(parents=True, exist_ok=True)
    # The next generation derives from *both* lineage witnesses — the
    # pointer and the gen-* files already on disk.  A lost or corrupt
    # CURRENT must not restart the counter at 1: that would overwrite
    # gen-000001.pkl under workers still mmapping it and regress the
    # monotonic cross-process epoch the supervisor (and replication
    # lineage markers) depend on.
    try:
        pointer_generation = read_current(directory)["generation"]
    except GenerationError:
        pointer_generation = 0
    generation = max(pointer_generation, _highest_generation_file(directory)) + 1
    if engine is not None:
        snapshot = directory / f"{GENERATION_PREFIX}{generation:06d}.pkl"
        save_engine(engine, snapshot)
        pointer_target = snapshot.name
    else:
        snapshot = Path(source_path).resolve()
        validate_snapshot(snapshot)  # reject garbage before repointing
        pointer_target = str(snapshot)
    atomic_write_text(
        directory / CURRENT_NAME,
        json.dumps({"generation": generation, "snapshot": pointer_target}) + "\n",
    )
    return generation, snapshot


def _highest_generation_file(directory: Path) -> int:
    """The largest ``gen-NNNNNN.pkl`` number on disk (0 when none parse)."""
    highest = 0
    for entry in list_generations(directory):
        digits = entry.stem[len(GENERATION_PREFIX):]
        if digits.isdigit():
            highest = max(highest, int(digits))
    return highest


def list_generations(directory: "str | Path") -> List[Path]:
    """In-directory generation snapshots, oldest first (pointer targets
    outside the directory are not listed — they are not ours to manage)."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(
        entry
        for entry in directory.iterdir()
        if entry.name.startswith(GENERATION_PREFIX) and entry.suffix == ".pkl"
    )


def prune_generations(directory: "str | Path", *, keep: int = 2) -> List[Path]:
    """Delete old in-directory generations, keeping the newest ``keep``.

    The active generation is always kept regardless of age.  Call this
    *after* a recycle completes: workers pinned to an old generation
    hold their arrays via mmap, so on POSIX an unlink under a straggler
    is survivable, but the contract is that pruned generations have no
    readers.  Returns the snapshots removed.
    """
    if keep < 1:
        raise ValueError("keep must be >= 1")
    directory = Path(directory)
    try:
        _, active = current_snapshot(directory)
    except GenerationError:
        active = None
    # Compare *resolved* paths: publish_snapshot(source_path=...) stores
    # a resolve()d absolute target while list_generations yields
    # directory-relative entries, so under a symlinked serving dir the
    # same file has two spellings — an unresolved == would prune the
    # active snapshot out from under live workers.
    active = active.resolve() if active is not None else None
    removed: List[Path] = []
    for snapshot in list_generations(directory)[:-keep]:
        if active is not None and snapshot.resolve() == active:
            continue
        sidecar = sidecar_path(snapshot)
        snapshot.unlink()
        if sidecar.exists():
            sidecar.unlink()
        removed.append(snapshot)
    return removed
