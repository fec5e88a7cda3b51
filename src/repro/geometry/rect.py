"""Axis-aligned rectangles (MBRs).

SEAL models every spatial extent — object regions, query regions, grid
cells, and R-tree node boxes — as a *minimum bounding rectangle* given by
its bottom-left and top-right corners.  All the spatial reasoning in the
paper reduces to three rectangle operations: area, intersection area,
and union (bounding-box) construction.  We implement them exactly with
plain floats; there is no tolerance fudging anywhere, so the filter
lemmas (which rely on ``min(w(g|q), w(g|o))`` being a true upper bound of
``|q∩o∩g|``) hold bit-for-bit.

Rectangles are closed sets: two rectangles sharing only a boundary edge
*touch*, but their intersection area is zero.  The paper's grid
signatures use open-interval semantics for cell assignment so that a
region lying exactly on a grid line is not assigned to both sides; that
policy lives in :mod:`repro.grid`, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

_isnan = math.isnan
_set = object.__setattr__


def _plain_edge(edge: float) -> float:
    """``edge`` as given if a ``float`` or ``int``, else ``float(edge)``
    (``math.isnan`` first, so a string edge still raises ``TypeError``)."""
    if type(edge) is float or type(edge) is int:
        return edge
    _isnan(edge)
    return float(edge)


@dataclass(frozen=True, slots=True, init=False)
class Rect:
    """An axis-aligned rectangle ``[x1, x2] × [y1, y2]``.

    Degenerate rectangles (zero width and/or height) are allowed: a point
    ROI is simply a zero-area rectangle, which matches how the Twitter
    dataset treats users whose tweets all share one location.

    Every edge is a Python ``float`` or ``int``: an edge of any other
    numeric type (a NumPy scalar, as array-fed callers pass) is stored
    as ``float(edge)`` at construction, which keeps its value, ``==``
    and ``hash``; ``int`` edges are kept as given.  A rectangle pickles
    and copies as its four edges, rebuilt through this constructor.

    Attributes:
        x1: Left edge (must be ``<= x2``).
        y1: Bottom edge (must be ``<= y2``).
        x2: Right edge.
        y2: Top edge.
    """

    x1: float
    y1: float
    x2: float
    y2: float

    # A hand-written __init__ (init=False): the edges are checked and
    # made plain before they are stored, not read back after.
    def __init__(self, x1: float, y1: float, x2: float, y2: float) -> None:
        kind = type(x1)
        if not (kind is type(y1) is type(x2) is type(y2) and (kind is float or kind is int)):
            x1, y1, x2, y2 = map(_plain_edge, (x1, y1, x2, y2))
        if _isnan(x1) or _isnan(y1) or _isnan(x2) or _isnan(y2):
            raise ValueError("Rect coordinates must not be NaN")
        if x1 > x2 or y1 > y2:
            raise ValueError(
                f"Rect requires x1 <= x2 and y1 <= y2, got ({x1}, {y1}, {x2}, {y2})"
            )
        _set(self, "x1", x1)
        _set(self, "y1", y1)
        _set(self, "x2", x2)
        _set(self, "y2", y2)

    def __reduce__(self):
        return (type(self), (self.x1, self.y1, self.x2, self.y2))

    def __setstate__(self, state) -> None:
        # Older format-9 snapshots store the dataclass state list; it goes
        # through the constructor too, so their edges come out plain.
        type(self).__init__(self, *state)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_center(cls, cx: float, cy: float, width: float, height: float) -> "Rect":
        """Build a rectangle centred on ``(cx, cy)``.

        Raises:
            ValueError: If ``width`` or ``height`` is negative.
        """
        if width < 0 or height < 0:
            raise ValueError("width and height must be non-negative")
        return cls(cx - width / 2.0, cy - height / 2.0, cx + width / 2.0, cy + height / 2.0)

    # ------------------------------------------------------------------
    # Scalar properties
    # ------------------------------------------------------------------

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        """Area ``|R|`` — the paper's ``|·|`` operator on regions."""
        return (self.x2 - self.x1) * (self.y2 - self.y1)

    @property
    def is_finite(self) -> bool:
        """No edge is infinite (a grid can only partition such a region)."""
        return (math.isfinite(self.x1) and math.isfinite(self.y1)
                and math.isfinite(self.x2) and math.isfinite(self.y2))

    @property
    def center(self) -> tuple[float, float]:
        return ((self.x1 + self.x2) / 2.0, (self.y1 + self.y2) / 2.0)

    # ------------------------------------------------------------------
    # Combinators
    # ------------------------------------------------------------------

    def intersection_area(self, other: "Rect") -> float:
        """``|self ∩ other|`` — the paper's spatial overlap, without allocating."""
        dx = min(self.x2, other.x2) - max(self.x1, other.x1)
        if dx <= 0.0:
            return 0.0
        dy = min(self.y2, other.y2) - max(self.y1, other.y1)
        if dy <= 0.0:
            return 0.0
        return dx * dy

    def union(self, other: "Rect") -> "Rect":
        """The MBR enclosing both rectangles (R-tree node expansion)."""
        return Rect(
            min(self.x1, other.x1),
            min(self.y1, other.y1),
            max(self.x2, other.x2),
            max(self.y2, other.y2),
        )

    def buffer(self, amount: float) -> "Rect":
        """Grow every side by ``amount >= 0``."""
        return Rect(self.x1 - amount, self.y1 - amount, self.x2 + amount, self.y2 + amount)

    def scale(self, factor: float) -> "Rect":
        """Scale about the centre by ``factor >= 0``."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        cx, cy = self.center
        half_w = (self.x2 - self.x1) * factor / 2.0
        half_h = (self.y2 - self.y1) * factor / 2.0
        return Rect(cx - half_w, cy - half_h, cx + half_w, cy + half_h)

    # ------------------------------------------------------------------
    # Iteration / conversion helpers
    # ------------------------------------------------------------------

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)

    def __iter__(self) -> Iterator[float]:
        return iter((self.x1, self.y1, self.x2, self.y2))


def mbr_of(rects: Sequence[Rect]) -> Rect:
    """The MBR of a non-empty collection of rectangles.

    Used to derive the *entire space* ``R`` that the grid signatures
    partition (Section 4.1: "the MBR of the regions of all objects").

    Raises:
        ValueError: If ``rects`` is empty.
    """
    if not rects:
        raise ValueError("mbr_of requires at least one rectangle")
    x1 = min(r.x1 for r in rects)
    y1 = min(r.y1 for r in rects)
    x2 = max(r.x2 for r in rects)
    y2 = max(r.y2 for r in rects)
    return Rect(x1, y1, x2, y2)


def corpus_space(regions: Sequence[Rect]) -> Rect:
    """The space a grid partitions when none is given: :func:`mbr_of` the
    corpus regions, buffered by half its longer side (at least 0.5) when
    it has no area, so that every cell has positive area.

    Raises:
        ValueError: If ``regions`` is empty.
    """
    space = mbr_of(regions)
    if space.width <= 0.0 or space.height <= 0.0:
        space = space.buffer(max(space.width, space.height, 1.0) * 0.5)
    return space


def spatial_jaccard(a: Rect, b: Rect) -> float:
    """Spatial Jaccard similarity (Definition 1): ``|a∩b| / |a∪b|``.

    Two degenerate rectangles have union area 0; we define their similarity
    as 1.0 when they are identical and 0.0 otherwise, which keeps the
    similarity total and the thresholds meaningful for point ROIs.
    """
    inter = a.intersection_area(b)
    union = a.area + b.area - inter
    if union <= 0.0:
        return 1.0 if a == b else 0.0
    return inter / union

