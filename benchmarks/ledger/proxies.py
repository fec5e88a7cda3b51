"""Thin span-recording proxies for the objects the program lets us inject.

``NetworkServer(service)``, ``QueryService(engine)`` and
``EngineManager`` accept any object with the right methods, so the
traced run hands them these wrappers instead of patching ``src/``.
Calls the program makes on its own objects (the planner's ``plan``, its
members' ``candidates``) get a span by shadowing the bound method on the
instance for the length of the traced pass.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from repro.exec.pipeline import execute_query

from .spans import SpanRecorder


class TracedService:
    """What ``NetworkServer`` sees: the service, with a span per call."""

    def __init__(self, service: Any, recorder: SpanRecorder) -> None:
        self._service = service
        self._recorder = recorder

    def query(self, query):
        with self._recorder.span("service.query"):
            return self._service.query(query)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._service, name)


class _TracedVerifier:
    def __init__(self, verifier: Any, recorder: SpanRecorder) -> None:
        self._verifier = verifier
        self._recorder = recorder

    def verify(self, query, candidates, stats=None):
        with self._recorder.span("core.verification.verify"):
            return self._verifier.verify(query, candidates, stats)


class TracedPlanner:
    """What ``QueryService`` sees in place of ``PlannedSealSearch``.

    ``search`` drives the program's own ``execute_query`` with this
    object as the method: the filter step is the real planner's
    ``candidates`` (spans inside it come from ``planner_spans``), the
    verification step the wrapped verifier.
    """

    name = "planned"

    def __init__(self, planner: Any, recorder: SpanRecorder) -> None:
        self.candidates = planner.candidates
        self.verifier = _TracedVerifier(planner.verifier, recorder)
        self._recorder = recorder

    def search(self, query):
        with self._recorder.span("exec.pipeline.search"):
            return execute_query(self, query)


@contextmanager
def planner_spans(planner: Any, recorder: SpanRecorder) -> Iterator[None]:
    """While open, ``planner.plan`` and every portfolio member's
    ``candidates`` record a span.  They are shadowed on the instances,
    so ``planner.candidates`` — the program's own dispatch, with its
    metrics and recording — is what runs between them."""
    def spanned(name: str, call):
        def wrapper(*args):
            with recorder.span(name):
                return call(*args)
        return wrapper

    shadowed = [(planner, "plan", "exec.planner.plan")] + [
        (member, "candidates", "filters.candidates") for member in planner.methods.values()
    ]
    for target, attribute, name in shadowed:
        setattr(target, attribute, spanned(name, getattr(target, attribute)))
    try:
        yield
    finally:
        for target, attribute, _ in shadowed:
            delattr(target, attribute)


class TracedDurable:
    """What ``EngineManager`` sees in place of the durable engine."""

    def __init__(self, engine: Any, recorder: SpanRecorder) -> None:
        self._engine = engine
        self._recorder = recorder

    def insert(self, region, tokens):
        with self._recorder.span("exec.durable.insert"):
            return self._engine.insert(region, tokens)

    def delete(self, oid):
        with self._recorder.span("exec.durable.delete"):
            return self._engine.delete(oid)

    def search_query(self, query):
        with self._recorder.span("exec.segments.search"):
            return self._engine.search_query(query)

    def checkpoint(self, path=None):
        with self._recorder.span("exec.durable.checkpoint"):
            return self._engine.checkpoint(path) if path is not None else self._engine.checkpoint()

    def __getattr__(self, name: str) -> Any:
        return getattr(self._engine, name)
