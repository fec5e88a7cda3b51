"""Corpus and workload files: JSON-lines, one record per line.

Object line:   {"oid": 3, "region": [x1, y1, x2, y2], "tokens": ["a", "b"]}
Query line:    {"region": [...], "tokens": [...], "tau_r": 0.4, "tau_t": 0.4}

JSONL keeps the format greppable, streamable, and appendable — the right
default for corpora that get regenerated, sampled and diffed during
experiments.  Loaders validate eagerly and fail with the offending line
number.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, Sequence

from repro.core.errors import InvalidQueryError, SealError
from repro.core.objects import (
    Query,
    SpatioTextualObject,
    query_from_record,
    query_to_record,
    region_from_record,
)
from repro.geometry import Rect
from repro.io.atomic import atomic_write


class CorpusFormatError(SealError, ValueError):
    """A corpus/workload file line failed validation."""


def save_corpus(objects: Iterable[SpatioTextualObject], path: str | Path) -> int:
    """Write objects as JSONL (atomically); returns the number written.

    A crash mid-write can never leave a truncated corpus behind: the
    lines land in a temp file that is fsynced and renamed into place.
    """
    path = Path(path)
    lines: List[str] = []
    for obj in objects:
        record = {
            "oid": obj.oid,
            "region": list(obj.region.as_tuple()),
            "tokens": sorted(obj.tokens),
        }
        lines.append(json.dumps(record, separators=(",", ":")) + "\n")
    atomic_write(path, lambda handle: handle.write("".join(lines).encode("utf-8")))
    return len(lines)


def load_corpus(path: str | Path) -> List[SpatioTextualObject]:
    """Read a JSONL corpus; oids must be dense and in file order.

    Raises:
        CorpusFormatError: On malformed JSON, bad fields, or oid gaps —
            with the 1-based line number.
    """
    path = Path(path)
    objects: List[SpatioTextualObject] = []
    with path.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            record = _parse_line(line, lineno)
            oid = record.get("oid")
            if oid != len(objects):
                raise CorpusFormatError(
                    f"{path}:{lineno}: expected oid {len(objects)}, got {oid!r}"
                )
            region = _parse_region(record, lineno, path)
            tokens = record.get("tokens")
            if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
                raise CorpusFormatError(f"{path}:{lineno}: 'tokens' must be a list of strings")
            objects.append(SpatioTextualObject(oid, region, frozenset(tokens)))
    return objects


def save_queries(queries: Iterable[Query], path: str | Path) -> int:
    """Write a query workload as JSONL (atomically); returns the number
    written."""
    path = Path(path)
    lines: List[str] = []
    for query in queries:
        lines.append(json.dumps(query_to_record(query), separators=(",", ":")) + "\n")
    atomic_write(path, lambda handle: handle.write("".join(lines).encode("utf-8")))
    return len(lines)


def load_queries(path: str | Path) -> List[Query]:
    """Read a JSONL query workload; a line without a threshold means
    0.0 for it.

    Raises:
        CorpusFormatError: On malformed lines (1-based line number).
    """
    path = Path(path)
    queries: List[Query] = []
    with path.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            record = {"tau_r": 0.0, "tau_t": 0.0, **_parse_line(line, lineno)}
            try:
                queries.append(query_from_record(record))
            except InvalidQueryError as exc:
                raise CorpusFormatError(f"{path}:{lineno}: {exc}") from exc
    return queries


def _parse_line(line: str, lineno: int) -> dict:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CorpusFormatError(f"line {lineno}: invalid JSON ({exc})") from exc
    if not isinstance(record, dict):
        raise CorpusFormatError(f"line {lineno}: expected a JSON object")
    return record


def _parse_region(record: dict, lineno: int, path: Path) -> Rect:
    try:
        return region_from_record(record.get("region"))
    except InvalidQueryError as exc:
        raise CorpusFormatError(f"{path}:{lineno}: {exc}") from exc
