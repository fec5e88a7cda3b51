"""Persistence: corpus files, engine snapshots, and the write-ahead log.

Real deployments don't regenerate their ROIs per process.  This package
provides a stable on-disk corpus format (JSON-lines, one object per
line), whole-engine snapshots, crash-safe atomic file replacement
(:mod:`repro.io.atomic`), and the write-ahead log (:mod:`repro.io.wal`)
that makes the updatable engine durable: an index built once can be
shipped to query-serving processes, and acknowledged mutations survive
a crash.
"""

from repro.io.atomic import atomic_write, atomic_write_bytes, atomic_write_text
from repro.io.corpus_io import load_corpus, load_queries, save_corpus, save_queries
from repro.io.snapshot import load_engine, save_engine, validate_snapshot
from repro.io.wal import (
    WALCursor,
    WALError,
    WALLineageError,
    WALShipment,
    WriteAheadLog,
    decode_frames,
    read_wal,
)

__all__ = [
    "WALCursor",
    "WALError",
    "WALLineageError",
    "WALShipment",
    "WriteAheadLog",
    "decode_frames",
    "atomic_write",
    "atomic_write_bytes",
    "atomic_write_text",
    "load_corpus",
    "load_engine",
    "load_queries",
    "read_wal",
    "save_corpus",
    "save_engine",
    "save_queries",
    "validate_snapshot",
]
