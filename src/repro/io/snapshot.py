"""Engine snapshots: build once, query everywhere.

A snapshot is a pickle of the engine object plus a version envelope, so
loads fail loudly on format drift instead of deserialising garbage.
Pickle is appropriate here: snapshots are trusted, same-codebase
artifacts (an index is meaningless under different code anyway); the
envelope records the library version for a clear error message.

**Layout.**  Index payloads stay out of the pickle stream: while the
engine pickles, every :class:`~repro.index.inverted.InvertedIndex`
externalises its CSR arrays (directory codes, offsets, oids, bound
columns) into an uncompressed ``<snapshot>.npz`` sidecar next to the
snapshot file, leaving only small markers in the pickle.  Loading
resolves the markers back from the sidecar — eagerly by default, or as
zero-copy memory maps with ``load_engine(path, mmap=True)``.  Engines
without a posting store (the naive, spatial-first and IR-tree
baselines) write no sidecar.  The envelope around the engine blob carries a *manifest*
(a segmented engine's per-segment object/live counts, size tiers,
buffer and tombstone accounting; a planner's portfolio) readable via
:func:`validate_snapshot` without deserialising the engine, and a ``wal``
block — the ``{"generation", "offset"}`` position a durability
*checkpoint* (:meth:`~repro.exec.durable.DurableSegmentedSealSearch.
checkpoint`) was taken at, which is what lets recovery align
``snapshot + WAL tail`` without double-applying logged operations (see
:mod:`repro.io.wal`); plain ``save_engine`` stores ``wal: None``.
Every write follows the full crash-safe recipe from
:mod:`repro.io.atomic` — fsync the temp file, atomic rename, fsync the
parent directory.

Snapshot + sidecar travel as a pair: move or rename them together.

For untrusted interchange use the JSONL corpus format and rebuild.
"""

from __future__ import annotations

import pickle
import zipfile
from pathlib import Path
from typing import Any, List

import numpy as _np

from repro.core.errors import SealError
from repro.io.atomic import atomic_write, fsync_directory
from repro.index.inverted import externalize_arrays, resolve_arrays

#: Bump when index internals change incompatibly; any other format is
#: rejected at the envelope with "rebuild the index".
SNAPSHOT_FORMAT = 9

_MAGIC = "repro-seal-snapshot"


class SnapshotError(SealError, RuntimeError):
    """A snapshot file is missing, corrupt, or from another format."""


def sidecar_path(path: "str | Path") -> Path:
    """The array-sidecar path belonging to snapshot ``path``."""
    path = Path(path)
    return path.with_name(path.name + ".npz")


def save_engine(
    engine: Any, path: str | Path, *, wal_position: "dict | None" = None
) -> None:
    """Snapshot any engine/method object to ``path``.

    Columnar posting arrays are written to :func:`sidecar_path` as an
    uncompressed ``.npz``; a stale sidecar from a previous save is
    removed when the new engine has none.  Both writes follow the full
    crash-safe recipe (temp fsync + atomic rename + directory fsync —
    :mod:`repro.io.atomic`), so after power loss the path holds either
    the previous complete snapshot or the new one, never a truncated or
    missing file.

    Args:
        engine: Any engine/method the library builds.
        path: Snapshot destination.
        wal_position: The WAL checkpoint position (``{"generation",
            "offset"}``) when this save is a durability checkpoint —
            recovery aligns replay on it.  ``None`` for plain saves.
    """
    from repro import __version__

    path = Path(path)
    arrays: List[Any] = []
    with externalize_arrays(arrays):
        blob = pickle.dumps(engine, protocol=pickle.HIGHEST_PROTOCOL)
    manifest_fn = getattr(engine, "snapshot_manifest", None)
    envelope = {
        "magic": _MAGIC,
        "format": SNAPSHOT_FORMAT,
        "library_version": __version__,
        # Engines that publish one (segmented engines) get their
        # segment/tombstone accounting into the envelope, readable via
        # validate_snapshot without touching the engine blob.
        "manifest": manifest_fn() if callable(manifest_fn) else None,
        # The WAL checkpoint position this snapshot was taken at, or
        # None outside the durability layer (see repro.io.wal).
        "wal": dict(wal_position) if wal_position is not None else None,
        "num_arrays": len(arrays),
        # Per-array (dtype, shape) fingerprints: loads check the sidecar
        # against these, so a snapshot paired with a stale sidecar (e.g.
        # a crash between the two writes) fails loudly instead of serving
        # another build's posting arrays.  Checkable under mmap without
        # touching a single data page.
        "array_meta": [(str(array.dtype), array.shape) for array in arrays],
        "engine": blob,
    }
    # Sidecar first, snapshot second: a crash in between leaves the old
    # snapshot (whose array_meta guards it against the new sidecar), not
    # a new snapshot silently paired with old arrays.
    sidecar = sidecar_path(path)
    if arrays:
        # np.savez stores members uncompressed (ZIP_STORED), which is
        # what lets the mmap loader map them in place.  The atomic
        # replace also means the write never truncates the very file an
        # mmap-loaded engine's arrays are mapped from (re-saving such an
        # engine to its own path used to crash with SIGBUS mid-write).
        atomic_write(
            sidecar,
            # A real handle, so np.savez can't re-suffix the filename.
            lambda handle: _np.savez(
                handle, **{f"a{i}": array for i, array in enumerate(arrays)}
            ),
        )
    # The snapshot write is atomic too: a crash mid-dump must not destroy
    # the previous good snapshot (and the fingerprint guard above assumes
    # the snapshot on disk is always a complete envelope).
    atomic_write(
        path,
        lambda handle: pickle.dump(envelope, handle, protocol=pickle.HIGHEST_PROTOCOL),
    )
    if not arrays and sidecar.exists():
        # Remove a stale sidecar only once the new snapshot is safely in
        # place — a crash before this line leaves the new (sidecar-less)
        # snapshot, which loads fine and ignores the leftover file.
        sidecar.unlink()
        fsync_directory(path.resolve().parent)


def load_engine(path: str | Path, *, mmap: bool = False) -> Any:
    """Load a snapshot written by :func:`save_engine`.

    Args:
        path: Snapshot path (the sidecar is found next to it).
        mmap: Memory-map the sidecar arrays instead of reading them into
            memory — near-instant loads and OS-shared pages across
            processes; ignored when the engine has no columnar arrays.

    Raises:
        SnapshotError: On missing/corrupt files, format mismatches, a
            missing/truncated sidecar, or an engine blob holding a value
            its type's constructor refuses.
    """
    path = Path(path)
    envelope = _read_envelope(path)
    num_arrays = envelope.get("num_arrays", 0)
    arrays: List[Any] = []
    if num_arrays:
        sidecar = sidecar_path(path)
        if not sidecar.exists():
            raise SnapshotError(
                f"snapshot sidecar missing: {sidecar} (snapshot and sidecar "
                "must move together)"
            )
        arrays = _load_sidecar(sidecar, mmap=mmap)
        if len(arrays) != num_arrays:
            raise SnapshotError(
                f"snapshot sidecar {sidecar} holds {len(arrays)} arrays, "
                f"expected {num_arrays}; rebuild the index"
            )
        expected_meta = envelope.get("array_meta", [])
        actual_meta = [(str(array.dtype), array.shape) for array in arrays]
        if actual_meta != [(dtype, tuple(shape)) for dtype, shape in expected_meta]:
            raise SnapshotError(
                f"snapshot sidecar {sidecar} does not match this snapshot's "
                "array fingerprints (stale or swapped sidecar); rebuild the index"
            )
    try:
        with resolve_arrays(arrays):
            return pickle.loads(envelope["engine"])
    # ValueError/TypeError: value types rebuild through their validating
    # constructors, so an impossible value (a NaN or inverted edge, a
    # negative oid) fails there.
    except (pickle.UnpicklingError, EOFError, AttributeError, ImportError, KeyError,
            IndexError, RuntimeError, ValueError, TypeError) as exc:
        raise SnapshotError(f"corrupt or incompatible snapshot {path}: {exc}") from exc


def validate_snapshot(path: str | Path) -> dict:
    """Validate a snapshot without deserialising its engine blob.

    Checks everything :func:`load_engine` would reject *before* paying
    for (or trusting) the engine bytes: envelope magic, snapshot format,
    and — when the engine carries columnar arrays — that the sidecar
    file is present next to the snapshot.  Recovery, ``inspect``,
    replication bootstrap and the worker-pool supervisor run this as
    their gate, so a bad file fails loudly before anything acts on it.

    Returns:
        The envelope metadata: ``format``, ``library_version``,
        ``manifest`` (segment/tombstone accounting or ``None``),
        ``wal`` (the checkpoint's WAL position or ``None``) and
        ``num_arrays``.

    Raises:
        SnapshotError: Exactly as :func:`load_engine` would for a
            missing/corrupt envelope, a format mismatch, or a missing
            sidecar.
    """
    path = Path(path)
    envelope = _read_envelope(path)
    if envelope.get("num_arrays", 0):
        sidecar = sidecar_path(path)
        if not sidecar.exists():
            raise SnapshotError(
                f"snapshot sidecar missing: {sidecar} (snapshot and sidecar "
                "must move together)"
            )
    return {
        "format": envelope.get("format"),
        "library_version": envelope.get("library_version"),
        "manifest": envelope.get("manifest"),
        "wal": envelope.get("wal"),
        "num_arrays": envelope.get("num_arrays", 0),
    }


def _read_envelope(path: Path) -> dict:
    """Read and validate a snapshot envelope (magic + format checks)."""
    if not path.exists():
        raise SnapshotError(f"snapshot not found: {path}")
    try:
        with path.open("rb") as handle:
            envelope = pickle.load(handle)
    except (pickle.UnpicklingError, EOFError, AttributeError, ImportError) as exc:
        raise SnapshotError(f"corrupt or incompatible snapshot {path}: {exc}") from exc
    if not isinstance(envelope, dict) or envelope.get("magic") != _MAGIC:
        raise SnapshotError(f"{path} is not a repro engine snapshot")
    if envelope.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(
            f"{path} uses snapshot format {envelope.get('format')}, "
            f"this library reads format {SNAPSHOT_FORMAT}; rebuild the index"
        )
    return envelope


# ----------------------------------------------------------------------
# Sidecar readers
# ----------------------------------------------------------------------


def _load_sidecar(path: Path, *, mmap: bool) -> List[Any]:
    """The sidecar arrays in externalisation order (``a0``, ``a1``, …)."""
    if not mmap:
        with _np.load(path) as npz:
            return [npz[f"a{i}"] for i in range(len(npz.files))]
    return _mmap_sidecar(path)


def _mmap_sidecar(path: Path) -> List[Any]:
    """Memory-map each ``.npy`` member of an uncompressed ``.npz`` in place.

    A ``np.savez`` archive is a zip of ``.npy`` members stored without
    compression, so each member's array data is a contiguous byte range of
    the archive file: seek past the zip local-file header and the npy
    header, then hand the remaining extent to :class:`numpy.memmap`.
    Falls back to an eager read for any member that is compressed or uses
    an npy version we do not parse.
    """
    from numpy.lib import format as npy_format

    by_name = {}
    with zipfile.ZipFile(path) as archive, path.open("rb") as raw:
        for info in archive.infolist():
            name = info.filename.removesuffix(".npy")
            if info.compress_type != zipfile.ZIP_STORED:
                with archive.open(info) as member:  # pragma: no cover
                    by_name[name] = npy_format.read_array(member)
                continue
            # Zip local file header: 30 fixed bytes, then name and extra.
            raw.seek(info.header_offset)
            header = raw.read(30)
            if header[:4] != b"PK\x03\x04":  # pragma: no cover - defensive
                with archive.open(info) as member:
                    by_name[name] = npy_format.read_array(member)
                continue
            name_len = int.from_bytes(header[26:28], "little")
            extra_len = int.from_bytes(header[28:30], "little")
            raw.seek(info.header_offset + 30 + name_len + extra_len)
            version = npy_format.read_magic(raw)
            if version == (1, 0):
                shape, fortran, dtype = npy_format.read_array_header_1_0(raw)
            elif version == (2, 0):  # pragma: no cover - giant headers only
                shape, fortran, dtype = npy_format.read_array_header_2_0(raw)
            else:  # pragma: no cover - future npy versions
                with archive.open(info) as member:
                    by_name[name] = npy_format.read_array(member)
                continue
            by_name[name] = _np.memmap(
                path,
                mode="r",
                dtype=dtype,
                shape=shape,
                offset=raw.tell(),
                order="F" if fortran else "C",
            )
    return [by_name[f"a{i}"] for i in range(len(by_name))]
