"""The ROI data model: spatio-textual objects and queries (Section 2.1).

An object ``o = (R, T)`` pairs an MBR region with a token set; a query
additionally carries the two similarity thresholds ``τR`` and ``τT``.
Objects are immutable value types — every index in the library keys them
by their integer ``oid``, assigned densely at corpus construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, Iterator, Mapping, Sequence

from repro.core.errors import InvalidQueryError
from repro.geometry import Rect


@dataclass(frozen=True, slots=True)
class SpatioTextualObject:
    """A region-of-interest: MBR region + token set (Definition in Sec. 2.1).

    Pickles and copies as its three fields, rebuilt through the
    constructor.

    Attributes:
        oid: Dense integer identifier within its corpus.
        region: The object's MBR ``o.R``.
        tokens: The textual description ``o.T`` as a frozen token set.
    """

    oid: int
    region: Rect
    tokens: FrozenSet[str]

    def __post_init__(self) -> None:
        if self.oid < 0:
            raise ValueError("object oid must be non-negative")
        # Normalise any iterable of tokens into a frozenset so equality and
        # hashing behave as a value type.
        if not isinstance(self.tokens, frozenset):
            object.__setattr__(self, "tokens", frozenset(self.tokens))

    def __reduce__(self):
        return (type(self), (self.oid, self.region, self.tokens))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        toks = ",".join(sorted(self.tokens)[:4])
        more = "…" if len(self.tokens) > 4 else ""
        return f"Object(o{self.oid}, {self.region.as_tuple()}, {{{toks}{more}}})"


@dataclass(frozen=True, slots=True)
class Query:
    """A spatio-textual similarity search query ``q = (R, T, τR, τT)``.

    Attributes:
        region: Query region ``q.R``.
        tokens: Query token set ``q.T``.
        tau_r: Spatial similarity threshold ``τR`` in [0, 1].
        tau_t: Textual similarity threshold ``τT`` in [0, 1].
    """

    region: Rect
    tokens: FrozenSet[str]
    tau_r: float
    tau_t: float

    def __post_init__(self) -> None:
        if not isinstance(self.tokens, frozenset):
            object.__setattr__(self, "tokens", frozenset(self.tokens))
        if not (0.0 <= self.tau_r <= 1.0):
            raise InvalidQueryError(f"tau_r must be in [0, 1], got {self.tau_r}")
        if not (0.0 <= self.tau_t <= 1.0):
            raise InvalidQueryError(f"tau_t must be in [0, 1], got {self.tau_t}")

    def with_thresholds(self, tau_r: float | None = None, tau_t: float | None = None) -> "Query":
        """A copy with one or both thresholds replaced (used by sweeps)."""
        return Query(
            region=self.region,
            tokens=self.tokens,
            tau_r=self.tau_r if tau_r is None else tau_r,
            tau_t=self.tau_t if tau_t is None else tau_t,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        toks = ",".join(sorted(self.tokens)[:4])
        more = "…" if len(self.tokens) > 4 else ""
        return (
            f"Query({self.region.as_tuple()}, {{{toks}{more}}}, "
            f"tau_r={self.tau_r}, tau_t={self.tau_t})"
        )


# ----------------------------------------------------------------------
# The JSON shape {region, tokens, tau_r, tau_t}: workload-file lines and
# wire requests are the same record, encoded and validated here once.
# ----------------------------------------------------------------------


def query_to_record(query: Query) -> Dict[str, Any]:
    """``query`` as its JSON-safe record (tokens sorted: equal queries
    encode to equal bytes)."""
    return {
        "region": list(query.region.as_tuple()),
        "tokens": sorted(query.tokens),
        "tau_r": query.tau_r,
        "tau_t": query.tau_t,
    }


_REGION_COMPLAINT = "'region' must be [x1, y1, x2, y2] numbers"
_STR_ONLY = frozenset({str})


def _number(value: Any, complaint: str) -> float:
    """A decoded JSON number as a float, by its exact type: ``true`` is
    a ``bool``, not a number here, and neither is an integer literal too
    large for a float."""
    kind = type(value)
    if kind is float:
        return value
    if kind is not int:
        raise InvalidQueryError(complaint)
    try:
        return float(value)
    except OverflowError:
        raise InvalidQueryError(complaint) from None


def region_from_record(value: Any) -> Rect:
    """Validate a decoded ``[x1, y1, x2, y2]`` field into a :class:`Rect`.

    Raises:
        InvalidQueryError: Not four numbers, or not a rectangle.
    """
    if (type(value) is not list and type(value) is not tuple) or len(value) != 4:
        raise InvalidQueryError(_REGION_COMPLAINT)
    x1, y1, x2, y2 = value
    corners = (
        _number(x1, _REGION_COMPLAINT), _number(y1, _REGION_COMPLAINT),
        _number(x2, _REGION_COMPLAINT), _number(y2, _REGION_COMPLAINT),
    )
    try:
        return Rect(*corners)
    except ValueError as exc:
        raise InvalidQueryError(str(exc)) from exc


def query_from_record(fields: Mapping[str, Any]) -> Query:
    """Validate a decoded query record (input from outside the program)
    into a :class:`Query`, in one pass of exact-type checks.  ``tokens``
    may be absent (no tokens); the thresholds may not.

    Raises:
        InvalidQueryError: Any field is missing, mistyped or out of range.
    """
    region = region_from_record(fields.get("region"))
    tokens = fields.get("tokens", [])
    if type(tokens) is not list or not set(map(type, tokens)) <= _STR_ONLY:
        raise InvalidQueryError("'tokens' must be a list of strings")
    tau_r = _number(fields.get("tau_r"), "'tau_r' must be a number in [0, 1]")
    tau_t = _number(fields.get("tau_t"), "'tau_t' must be a number in [0, 1]")
    return Query(region, frozenset(tokens), tau_r, tau_t)


def make_corpus(
    regions_and_tokens: Iterable[tuple[Rect, Iterable[str]]],
) -> list[SpatioTextualObject]:
    """Assign dense oids to ``(region, tokens)`` pairs, in input order.

    Examples:
        >>> objs = make_corpus([(Rect(0, 0, 1, 1), {"tea"})])
        >>> objs[0].oid
        0
    """
    return [
        SpatioTextualObject(oid, region, frozenset(tokens))
        for oid, (region, tokens) in enumerate(regions_and_tokens)
    ]


class Corpus(Sequence[SpatioTextualObject]):
    """An immutable, oid-addressable collection of objects.

    Wraps a list so that ``corpus[oid]`` is guaranteed to return the object
    with that oid (the constructor validates density), which every filter
    relies on when it turns candidate oids back into objects.
    """

    __slots__ = ("_objects",)

    def __init__(self, objects: Sequence[SpatioTextualObject]) -> None:
        for i, obj in enumerate(objects):
            if obj.oid != i:
                raise ValueError(
                    f"Corpus requires dense oids in order; position {i} has oid {obj.oid}"
                )
        self._objects = list(objects)

    def __getitem__(self, oid):  # type: ignore[override]
        return self._objects[oid]

    def __len__(self) -> int:
        return len(self._objects)

    def __iter__(self) -> Iterator[SpatioTextualObject]:
        return iter(self._objects)
