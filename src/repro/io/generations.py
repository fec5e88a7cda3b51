"""Snapshot generations: the cross-process edition of the epoch counter.

Inside one process, :class:`~repro.service.service.QueryService` bumps
an epoch integer and swaps an object reference.  Across processes there
is no shared reference to swap — what the supervisor and its workers
share is a *directory*, and this module gives that directory the same
semantics:

* a **generation** is one immutable snapshot (plus sidecar) the
  loader can ``load_engine(mmap=True)`` — published once, never mutated;
* ``CURRENT`` is a tiny JSON pointer file naming the active generation,
  replaced atomically (:mod:`repro.io.atomic`), so a worker booting at
  any moment reads either the old pointer or the new one, never a torn
  one;
* workers *discover* their engine: they read ``CURRENT`` at boot and
  memory-map the snapshot it names — N workers share one copy of the
  columnar arrays through the page cache;
* a publish records an existing snapshot file by its absolute path
  instead of copying gigabytes, and numbers it one past the pointer.

``serve --net`` publishes once at boot; its workers serve that
generation until shutdown.  A pointer may also name a snapshot relative
to the directory (older serving directories do), and
:func:`current_snapshot` resolves it there.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Tuple

from repro.core.errors import SealError
from repro.io.atomic import atomic_write_text
from repro.io.snapshot import validate_snapshot

#: The pointer file naming the active generation.
CURRENT_NAME = "CURRENT"


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


def publish_snapshot(directory: "str | Path", *, source_path: "str | Path") -> Tuple[int, Path]:
    """Publish ``source_path`` as the next generation and atomically
    repoint ``CURRENT`` at it.

    The snapshot is validated, then referenced by absolute path — no
    copy.  It is in place *before* the pointer flips, so a crash
    between the two leaves the old generation serving.  The next
    generation is the pointer's plus one, or 1 when the pointer is
    missing or corrupt: nothing is ever written into the directory
    but the pointer, so no file can be overwritten.

    Returns:
        The new ``(generation, snapshot path)``.

    Raises:
        SnapshotError: ``source_path`` is not a loadable snapshot.
    """
    directory = Path(directory)
    snapshot = Path(source_path).resolve()
    validate_snapshot(snapshot)  # reject garbage before repointing
    directory.mkdir(parents=True, exist_ok=True)
    try:
        generation = read_current(directory)["generation"] + 1
    except GenerationError:
        generation = 1
    atomic_write_text(
        directory / CURRENT_NAME,
        json.dumps({"generation": generation, "snapshot": str(snapshot)}) + "\n",
    )
    return generation, snapshot
