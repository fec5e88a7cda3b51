"""The ledger's span recorder: ``{name, start, end, parent, request_id}``.

Spans are recorded from the benchmark's own files only, around the calls
into each layer's public functions; tracing inside ``src/`` is a later
change.  They live in memory on a monotonic clock and are written as
JSONL when the run ends.

The load is one closed-loop client, so at most one request is in flight
and the threads it crosses (client → connection handler → admission
worker) hand over strictly in sequence.  One recorder-wide stack is
therefore enough to parent a span opened on the server thread under the
root the client thread opened — no thread-locals, no context passing.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Dict, List, Optional


class _Span:
    __slots__ = ("_recorder", "_index")

    def __init__(self, recorder: "SpanRecorder", index: int) -> None:
        self._recorder = recorder
        self._index = index

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, *exc_info) -> None:
        recorder = self._recorder
        recorder.spans[self._index][2] = time.perf_counter()
        recorder._stack.pop()
        if not recorder._stack:
            recorder._request = None


class SpanRecorder:
    """Collects spans as ``[name, start, end, parent, request_id]`` rows;
    a span's id is its row index, a root's parent is ``None``."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._request: Optional[int] = None

    def request(self, request_id: int, name: str) -> _Span:
        """Open the root span of one request."""
        self._request = request_id
        return self.span(name)

    def span(self, name: str) -> _Span:
        """Open a child of whatever span is innermost right now."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._request])
        return _Span(self, index)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, request_id) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "request_id": request_id,
                }) + "\n")


def self_times(spans: List[list]) -> List[float]:
    """Per span: its duration minus the part its children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def totals_by_name(spans: List[list], first: int = 0) -> Dict[str, Dict[str, float]]:
    """``name -> {count, total, self}`` in seconds over ``spans[first:]``."""
    own = self_times(spans)
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"count": 0, "total": 0.0, "self": 0.0}
    )
    for (name, start, end, _, _), self_seconds in zip(spans[first:], own[first:]):
        entry = out[name]
        entry["count"] += 1
        entry["total"] += end - start
        entry["self"] += self_seconds
    return dict(out)


def check_tree(spans: List[list]) -> List[str]:
    """Structural faults of a span list (empty when well formed): every
    request has exactly one root, children sit inside their parent and
    share its request id."""
    faults: List[str] = []
    roots: Dict[object, int] = defaultdict(int)
    for index, (name, start, end, parent, request_id) in enumerate(spans):
        if end < start:
            faults.append(f"span {index} ({name}) ends before it starts")
        if parent is None:
            roots[request_id] += 1
            continue
        _, p_start, p_end, _, p_request = spans[parent]
        if not (p_start <= start and end <= p_end):
            faults.append(f"span {index} ({name}) leaks outside its parent {parent}")
        if p_request != request_id:
            faults.append(f"span {index} ({name}) changed request id under {parent}")
    faults.extend(
        f"request {request_id} has {count} roots"
        for request_id, count in roots.items() if count != 1
    )
    return faults
