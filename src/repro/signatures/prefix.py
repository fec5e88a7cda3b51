"""Weighted prefix filtering: Lemma 2 (prefixes) and Lemma 3 (bounds).

Fix a global order on signature elements and sort every signature by it.
For a signature ``S = [s_1, …, s_n]`` with weights ``w_i`` and an overlap
threshold ``c``:

* **Lemma 2** — the *prefix* keeps the first ``p`` elements where ``p``
  is the smallest ``i`` with ``Σ_{j>i} w_j < c``.  If two signatures'
  weighted overlap reaches ``c``, their prefixes must share an element,
  so probing only prefix elements loses no answers.
* **Lemma 3** — the *threshold bound* of ``s_i`` in ``S`` is the suffix
  sum ``Σ_{j≥i} w_j``.  An object can be pruned from the inverted list of
  ``s_i`` whenever ``c`` exceeds its bound, because every common element
  of the two signatures sorts at or after the first common one.

Both are scheme-agnostic: tokens, grid cells, and hybrid pairs all flow
through :func:`select_prefix` at query time and
:func:`segmented_suffix_bounds` at build time.
"""

from __future__ import annotations

from typing import Sequence, Tuple, TypeVar

import numpy as np

Element = TypeVar("Element")


def segmented_suffix_bounds(weights: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Lemma-3 bounds of many signatures laid end to end: each element's
    suffix sum ``Σ_{j≥i} w_j`` within its own signature.

    Each signature's sums are the right-to-left additions of a scalar
    loop, to the bit; signatures of equal length are stacked into one
    matrix, so a build pays one cumulative sum per distinct length
    instead of a Python loop per object.

    Args:
        weights: Flat signature weights, each signature in global order.
        sizes: Elements per signature; ``sizes.sum() == len(weights)``.

    Examples:
        >>> segmented_suffix_bounds(np.array([3.0, 2.0, 1.0, 5.0]), np.array([3, 1])).tolist()
        [6.0, 3.0, 1.0, 5.0]
    """
    weights = np.asarray(weights, dtype=np.float64)
    sizes = np.asarray(sizes, dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    bounds = np.empty_like(weights)
    # The distinct sizes by a count, not ``np.unique``: a bare
    # ``np.unique`` imports ``numpy.ma`` (≈ 1.2 MB resident) on first use.
    for size in np.flatnonzero(np.bincount(sizes)).tolist():
        if size:
            block = starts[sizes == size][:, None] + np.arange(size)
            # ``+ 0.0``: the loop's sum starts at ``0.0``, so a suffix of
            # ``-0.0`` weights (a region edge at ``-0.0``) sums to ``0.0``.
            bounds[block] = np.cumsum(weights[block][:, ::-1], axis=1)[:, ::-1] + 0.0
    return bounds


def select_prefix(weights: Sequence[float], threshold: float) -> int:
    """Prefix length ``p`` per Lemma 2: drop the lightest-possible suffix.

    ``p = min{i : Σ_{j>i} w_j < threshold}``.  Properties worth noting:

    * ``threshold <= 0`` keeps the *whole* signature (no suffix has weight
      strictly below a non-positive threshold, since weights are ≥ 0) —
      exactly what a vacuous similarity threshold requires for safety.
    * ``threshold > Σ w_j`` yields ``p = 0``: no object can reach the
      threshold, so the empty prefix correctly produces zero candidates.

    Args:
        weights: Signature weights in global order.
        threshold: The derived overlap threshold ``c``.

    Returns:
        Number of leading elements to keep (0 ≤ p ≤ len(weights)).

    Examples:
        >>> select_prefix([3.0, 2.0, 1.0], 2.5)   # suffix [1.0] < 2.5
        2
        >>> select_prefix([3.0, 2.0, 1.0], 0.5)   # suffix [] only
        3
        >>> select_prefix([3.0, 2.0, 1.0], 10.0)  # unreachable threshold
        0
    """
    if threshold <= 0.0:
        return len(weights)
    suffix = 0.0
    # Walk from the end accumulating the suffix; the first index (from the
    # right) whose *exclusive* suffix is still < threshold is the cut.
    p = len(weights)
    for i in range(len(weights) - 1, -1, -1):
        if suffix + weights[i] < threshold:
            p = i
        else:
            break
        suffix += weights[i]
    return p


def prefix_elements(
    signature: Sequence[Tuple[Element, float]], threshold: float
) -> Sequence[Tuple[Element, float]]:
    """Convenience wrapper: the prefix slice of an ``(element, weight)`` list."""
    p = select_prefix([w for _, w in signature], threshold)
    return signature[:p]
