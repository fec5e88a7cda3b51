"""Hierarchical hybrid signature selection — the HSS problem (Section 5.2).

For each token ``t``, SEAL selects at most ``mt`` *hierarchical* grids
``G_t`` (a frontier of the grid tree, i.e. a set of disjoint cells
covering every region that contains ``t``) minimising the total grid
error

    Error(g) = Σ_{finest g_f ⊆ g} (Î(g) − Î(g_f))²          (Definition 6)

where ``Î(g) = Σ_{o∈I(g)} |g ∩ o.R| / |g|`` is the expected inverted-list
size under a uniform-query assumption.  The exact problem is NP-hard
(Theorem 1, by reduction from rectangular partitioning), so Algorithm 2
(``HSS-Greedy``) refines the highest-error node first until the ``mt``
budget would be exceeded.

This module implements the greedy exactly as Figure 11 states it, with
one engineering concession for Zipf-tail tokens: a token contained in at
most ``min_objects`` objects gets the trivial root partition — its
inverted lists are short regardless, so spending grid budget there buys
nothing (and building thousands of single-use grid trees would dominate
index construction).

Implementation note: the greedy is the hottest loop of SEAL index
construction (every segment seal, merge, recovery and portfolio build
pays it once per distinct token), so it runs *lock-step over many tokens
at once*.  Each token keeps its own heap, tie-break sequence and budget
test — the control flow of Figure 11 is per token and untouched — but the
arithmetic of one round (every token pops until it reaches the node it
refines next) is two array kernels over the concatenated region rows of
all those nodes:

* :func:`_split` tests each row against its node's four quadrants with
  the closed ``<=`` comparison and hands every non-empty child its own
  row block (the scalar code's ``regions[mask]``, in the same row order);
* :func:`_score` computes, for every new child from *its own* rows, Î,
  the Î of its four quadrants (so the Figure-11 error), and how many of
  those quadrants are non-empty — the count the budget test needs when
  the child is popped, so a pop that only selects touches no array.

Per-node sums are segmented reductions (``reduceat`` over the CSR row
blocks, the idiom of :mod:`repro.index.inverted`).  Why this keeps the
greedy's order: a node's priority is still computed from exactly the
operands the scalar kernel used — that node's rows in corpus order,
against boxes derived by the same midpoint halving — with identical
per-row products, divisions and the same left-to-right sum over the four
quadrants.  Only the association order inside one Σ over rows differs
(NumPy's pairwise blocks instead of the BLAS dot kernel's lanes), a
last-ulp effect of the kind the BLAS build already decided; where the
scalar sums were exact (zero areas, identical or dyadic coordinates) the
segmented ones are too, so exact ties still fall to push order.  The
differential tests pin frontiers and postings against the scalar
reference kept in ``tests/reference_hss.py``.

Tokens are taken in batches of about :data:`_BATCH_ROWS` region rows, so
the kernels' temporaries — and the rows held by live heap entries — are
bounded by a constant rather than by the corpus.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.errors import ConfigurationError
from repro.geometry import Rect
from repro.grid.hierarchy import GridHierarchy, HierCell

#: Bare-tuple rectangle used in the probe path.
_Box = Tuple[float, float, float, float]

#: Region rows (summed over tokens) one lock-step batch starts from.  A
#: fixed constant, not a knob: it caps the kernels' temporaries, and a
#: token with more rows than this simply gets a batch to itself.
_BATCH_ROWS = 1 << 16


def _as_array(regions: Sequence[Rect] | Sequence[_Box]) -> np.ndarray:
    rows = [r.as_tuple() if isinstance(r, Rect) else tuple(r) for r in regions]
    return np.asarray(rows, dtype=np.float64).reshape(len(rows), 4)


def _edges(boxes: np.ndarray):
    """Per node ``(x1, mx, x2, y1, my, y2)``: its box and the midlines
    that quarter it (the scalar code's ``_quarters``, edge by edge)."""
    x1, y1, x2, y2 = boxes[:, 0], boxes[:, 1], boxes[:, 2], boxes[:, 3]
    return x1, (x1 + x2) / 2.0, x2, y1, (y1 + y2) / 2.0, y2


def _quadrant_masks(rows: np.ndarray, row_edges):
    """Closed-interval membership of each row in its node's four
    quadrants, in child order (left-bottom, right-bottom, left-top,
    right-top)."""
    x1, mx, x2, y1, my, y2 = row_edges
    rx1, ry1, rx2, ry2 = rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3]
    left = (rx1 <= mx) & (x1 <= rx2)
    right = (rx1 <= x2) & (mx <= rx2)
    bottom = (ry1 <= my) & (y1 <= ry2)
    top = (ry1 <= y2) & (my <= ry2)
    return left & bottom, right & bottom, left & top, right & top


def _split(rows: np.ndarray, lens: np.ndarray, boxes: np.ndarray):
    """Hand every refined node's rows to its non-empty quadrants.

    Args:
        rows: ``(M, 4)`` region rows, one contiguous block per node.
        lens: Rows per node.
        boxes: ``(S, 4)`` node boxes.

    Returns:
        ``(child_rows, child_lens, parent, quadrant, child_boxes)`` —
        the children's row blocks laid end to end, and per child its
        block length, parent position, quadrant (0..3) and box.  Blocks
        are quadrant-major; within a block rows keep their order.
    """
    num_nodes = len(lens)
    edges = _edges(boxes)
    masks = _quadrant_masks(rows, [np.repeat(edge, lens) for edge in edges])
    node_of_row = np.repeat(np.arange(num_nodes), lens)
    picks = [np.flatnonzero(mask) for mask in masks]
    counts = np.concatenate(
        [np.bincount(node_of_row[pick], minlength=num_nodes) for pick in picks]
    )
    kept = np.flatnonzero(counts)
    quadrant, parent = np.divmod(kept, num_nodes)
    x1, mx, x2, y1, my, y2 = edges
    quarters = np.array(
        [
            [x1, y1, mx, my],
            [mx, y1, x2, my],
            [x1, my, mx, y2],
            [mx, my, x2, y2],
        ]
    )  # (quadrant, edge, node)
    child_boxes = quarters[quadrant, :, parent]
    return rows[np.concatenate(picks)], counts[kept], parent, quadrant, child_boxes


def _score(rows: np.ndarray, lens: np.ndarray, boxes: np.ndarray, scale):
    """Negated Figure-11 error and non-empty quadrant count per node.

    ``Error(g) ≈ scale · Σ_c (Î(g) − Î(c))²`` over the four quadrants
    ``c``, every Î summed over the node's own rows.  Definition 6's exact
    error sums over *all finest grids* under ``g`` — ``4^(levels below)``
    of them — so each quadrant's squared deviation stands in for the
    ``4^(levels_below − 1)`` finest cells beneath it (``scale``).
    Dropping the factor (a literal reading of the Figure 11 pseudo-code)
    makes the greedy depth-first: the densest quadrant's descendants
    monopolise the queue and every other region is left at
    continent-sized cells, which destroys the filtering power the
    hierarchical signatures exist to provide.

    Every block must be non-empty (``reduceat`` has no empty segments).
    """
    edges = _edges(boxes)
    row_edges = [np.repeat(edge, lens) for edge in edges]
    x1, mx, x2, y1, my, y2 = row_edges
    rx1, ry1, rx2, ry2 = rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3]
    # Clipped extents of each row inside the node and inside its halves:
    # min(hi) − max(lo), floored at 0 where the row misses.
    lo_x1, lo_mx = np.maximum(rx1, x1), np.maximum(rx1, mx)
    hi_mx, hi_x2 = np.minimum(rx2, mx), np.minimum(rx2, x2)
    lo_y1, lo_my = np.maximum(ry1, y1), np.maximum(ry1, my)
    hi_my, hi_y2 = np.minimum(ry2, my), np.minimum(ry2, y2)
    full_dx = np.maximum(hi_x2 - lo_x1, 0.0)
    left_dx = np.maximum(hi_mx - lo_x1, 0.0)
    right_dx = np.maximum(hi_x2 - lo_mx, 0.0)
    full_dy = np.maximum(hi_y2 - lo_y1, 0.0)
    bottom_dy = np.maximum(hi_my - lo_y1, 0.0)
    top_dy = np.maximum(hi_y2 - lo_my, 0.0)
    overlap = np.empty((5, len(rows)))  # the node, then its quadrants
    np.multiply(full_dx, full_dy, out=overlap[0])
    np.multiply(left_dx, bottom_dy, out=overlap[1])
    np.multiply(right_dx, bottom_dy, out=overlap[2])
    np.multiply(left_dx, top_dy, out=overlap[3])
    np.multiply(right_dx, top_dy, out=overlap[4])
    starts = np.cumsum(lens) - lens
    sums = np.add.reduceat(overlap, starts, axis=1)

    x1, mx, x2, y1, my, y2 = edges
    areas = np.array(
        [
            (x2 - x1) * (y2 - y1),
            (mx - x1) * (my - y1),
            (x2 - mx) * (my - y1),
            (mx - x1) * (y2 - my),
            (x2 - mx) * (y2 - my),
        ]
    )
    positive = areas > 0.0
    ihat = np.where(positive, sums / np.where(positive, areas, 1.0), 0.0)
    diff = ihat[0] - ihat[1:]
    diff *= diff
    error = (((diff[0] + diff[1]) + diff[2]) + diff[3]) * scale

    inside = np.array(_quadrant_masks(rows, row_edges))
    nonempty = np.logical_or.reduceat(inside, starts, axis=1).sum(axis=0)
    return -error, nonempty


def _greedy_lockstep(
    rows: np.ndarray,
    lens: np.ndarray,
    hierarchy: GridHierarchy,
    budgets: Sequence[int],
) -> List[List[HierCell]]:
    """Algorithm 2 for one batch of tokens, one refinement each per round.

    Per token this is Figure 11 verbatim: a max-heap on error with the
    push sequence as tie-break, and the budget test
    ``|Gt| + |Q| + |Nc| − 1 > mt`` (the paper counts the popped node
    inside ``|Q|``; we popped it, so ``|Q|_paper = len(queue) + 1`` and
    the −1 cancels).  Node ids grow in push order within a token, so the
    id doubles as that tie-break.
    """
    num_tokens = len(lens)
    max_level = hierarchy.max_level
    root_box = hierarchy.cell_rect(hierarchy.ROOT).as_tuple()
    # scale[level]: finest cells each quadrant of a level-``level`` node
    # stands in for (see _score).
    scale = np.array(
        [float(4 ** max(max_level - level - 1, 0)) for level in range(max_level + 2)]
    )

    capacity = max(4 * num_tokens, 1024)
    box = np.empty((capacity, 4))
    grid_pos = np.empty((capacity, 2), dtype=np.int64)  # (row, col) in the node's level
    box[:num_tokens] = root_box
    grid_pos[:num_tokens] = 0
    neg_error, nonempty = _score(rows, lens, box[:num_tokens], scale[0])
    starts = (np.cumsum(lens) - lens).tolist()
    # Per-node tables; nodes 0..num_tokens-1 are the roots.
    level: List[int] = [0] * num_tokens
    children: List[int] = nonempty.tolist()
    block: List[np.ndarray | None] = [
        rows[start : start + size] for start, size in zip(starts, lens.tolist())
    ]
    heaps: List[List[Tuple[float, int]]] = [
        [(priority, node)] for node, priority in enumerate(neg_error.tolist())
    ]
    selected: List[List[int]] = [[] for _ in range(num_tokens)]

    active = list(range(num_tokens))
    while active:
        refine: List[int] = []
        owners: List[int] = []
        for token in active:
            queue = heaps[token]
            chosen = selected[token]
            budget = budgets[token]
            while queue:
                node = heappop(queue)[1]
                fanout = children[node]
                if (
                    level[node] >= max_level
                    or fanout == 0
                    or len(chosen) + len(queue) + fanout > budget
                ):
                    chosen.append(node)
                    block[node] = None
                else:
                    refine.append(node)
                    owners.append(token)
                    break
        if not refine:
            break
        parts = [block[node] for node in refine]
        for node in refine:
            block[node] = None
        ids = np.array(refine)
        part_lens = np.fromiter(map(len, parts), np.int64, len(parts))
        child_rows, child_lens, parent, quadrant, child_boxes = _split(
            np.concatenate(parts), part_lens, box[ids]
        )
        child_level = np.array([level[node] for node in refine])[parent] + 1
        neg_error, nonempty = _score(child_rows, child_lens, child_boxes, scale[child_level])

        # Blocks come quadrant-major; push node by node, children in
        # quadrant order, which is the order the tie-break must record.
        order = np.argsort(parent * 4 + quadrant)
        count = len(order)
        first = len(level)
        if first + count > len(box):
            grow = max(first + count, 2 * len(box)) - len(box)
            box = np.concatenate([box, np.empty((grow, 4))])
            grid_pos = np.concatenate([grid_pos, np.empty((grow, 2), dtype=np.int64)])
        parent = parent[order]
        quadrant = quadrant[order]
        box[first : first + count] = child_boxes[order]
        grid_pos[first : first + count, 0] = grid_pos[ids[parent], 0] * 2 + (quadrant >> 1)
        grid_pos[first : first + count, 1] = grid_pos[ids[parent], 1] * 2 + (quadrant & 1)
        level.extend(child_level[order].tolist())
        children.extend(nonempty[order].tolist())
        ends = np.cumsum(child_lens)
        block.extend(
            child_rows[start:end]
            for start, end in zip((ends - child_lens)[order].tolist(), ends[order].tolist())
        )
        pushes = zip(
            np.array(owners)[parent].tolist(),
            neg_error[order].tolist(),
            range(first, first + count),
        )
        for token, priority, node in pushes:
            heappush(heaps[token], (priority, node))
        active = owners

    positions = grid_pos[: len(level)].tolist()
    return [
        [(level[node], positions[node][0], positions[node][1]) for node in chosen]
        for chosen in selected
    ]


def hss_greedy_many(
    rows: np.ndarray,
    offsets: Sequence[int],
    hierarchy: GridHierarchy,
    budgets: Sequence[int],
) -> List[List[HierCell]]:
    """Algorithm 2 for many tokens at once.

    Args:
        rows: ``(M, 4)`` float array ``[x1, y1, x2, y2]`` — the regions
            of the objects containing each token (``I(t)``), token after
            token, each token's rows in corpus order.
        offsets: ``offsets[i] .. offsets[i + 1]`` delimits token ``i``.
        hierarchy: The grid tree (its ``max_level`` bounds refinement).
        budgets: Maximum number of selected grids per token (each ≥ 1).

    Returns:
        Per token, the selected frontier cells; they are pairwise
        disjoint and cover every input region's extent within the space.

    Raises:
        ConfigurationError: If any budget is below 1.
    """
    for mt in budgets:
        if mt < 1:
            raise ConfigurationError(f"mt must be >= 1, got {mt}")
    offsets = np.asarray(offsets, dtype=np.int64)
    lens = np.diff(offsets)
    # A token with no region has nothing to refine: the root covers it.
    frontiers: List[List[HierCell]] = [[hierarchy.ROOT] for _ in lens]
    start = 0
    while start < len(lens):
        # As many whole tokens as fit the row budget, at least one.
        limit = offsets[start] + _BATCH_ROWS
        stop = max(start + 1, int(np.searchsorted(offsets, limit, side="right")) - 1)
        batch = start + np.flatnonzero(lens[start:stop])
        if len(batch):
            results = _greedy_lockstep(
                rows[offsets[start] : offsets[stop]],
                lens[batch],
                hierarchy,
                [budgets[token] for token in batch.tolist()],
            )
            for token, cells in zip(batch.tolist(), results):
                frontiers[token] = cells
        start = stop
    return frontiers


def hss_greedy(
    regions: Sequence[Rect] | Sequence[_Box],
    hierarchy: GridHierarchy,
    mt: int,
) -> List[HierCell]:
    """Algorithm 2 for a single token: ≤ ``mt`` hierarchical grids of
    ``regions`` (see :func:`hss_greedy_many`)."""
    rows = _as_array(regions)
    return hss_greedy_many(rows, [0, len(rows)], hierarchy, [mt])[0]


class TokenGrids:
    """The selected hierarchical grids of one token, with their global order.

    The order (Section 5.2): ascending tree level first, then ascending
    number of intersecting object regions, then cell coordinates.

    Attributes:
        cells: Selected cells in global order.
        boxes: Cell rectangles as bare tuples, aligned with ``cells``
            (kept for the filter's hot probe path).
    """

    __slots__ = ("cells", "boxes")

    def __init__(self, cells: Tuple[HierCell, ...], boxes: Tuple[_Box, ...]) -> None:
        self.cells = cells
        self.boxes = boxes

    def __len__(self) -> int:
        return len(self.cells)


def _ordered_grids(
    cells: List[HierCell], rows: np.ndarray, hierarchy: GridHierarchy
) -> TokenGrids:
    """Put a frontier in the hierarchical global order."""
    grid = np.array(cells, dtype=np.int64).reshape(len(cells), 3)
    boxes = hierarchy.cell_boxes(grid)
    if len(cells) > 1:
        touching = (
            (rows[:, 0:1] <= boxes[:, 2])
            & (boxes[:, 0] <= rows[:, 2:3])
            & (rows[:, 1:2] <= boxes[:, 3])
            & (boxes[:, 1] <= rows[:, 3:4])
        )
        counts = np.count_nonzero(touching, axis=0)
        order = np.lexsort((grid[:, 2], grid[:, 1], counts, grid[:, 0]))
        cells = [cells[i] for i in order.tolist()]
        boxes = boxes[order]
    # tolist(): plain ints and floats, so the probe path does Python
    # arithmetic and a snapshot pickles 9-byte floats whatever scalar
    # type the corpus coordinates arrived as.
    return TokenGrids(tuple(cells), tuple(map(tuple, boxes.tolist())))


def select_token_grids_many(
    rows: np.ndarray,
    offsets: Sequence[int],
    hierarchy: GridHierarchy,
    budgets: Sequence[int],
    *,
    min_objects: int = 0,
) -> List[TokenGrids]:
    """HSS-Greedy plus the hierarchical global order, for many tokens.

    Args:
        rows: Region rows, token after token (see :func:`hss_greedy_many`).
        offsets: Token boundaries in ``rows``.
        hierarchy: Shared grid tree.
        budgets: Grid budget per token.
        min_objects: Tokens with at most this many regions receive the
            trivial root partition (see module docstring).
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    sizes = np.diff(offsets)
    budgets = np.asarray(budgets)
    greedy = (sizes > min_objects) & (budgets != 1)
    frontiers = hss_greedy_many(
        rows[np.repeat(greedy, sizes)],
        np.concatenate([[0], np.cumsum(sizes[greedy])]),
        hierarchy,
        budgets[greedy].tolist(),
    )
    root = hierarchy.ROOT
    root_box = tuple(map(float, hierarchy.cell_rect(root).as_tuple()))
    grids = [TokenGrids((root,), (root_box,)) for _ in sizes]
    for token, cells in zip(np.flatnonzero(greedy).tolist(), frontiers):
        grids[token] = _ordered_grids(cells, rows[offsets[token] : offsets[token + 1]], hierarchy)
    return grids


def select_token_grids(
    regions: Sequence[Rect] | Sequence[_Box],
    hierarchy: GridHierarchy,
    mt: int,
    *,
    min_objects: int = 0,
) -> TokenGrids:
    """:func:`select_token_grids_many` for a single token's regions."""
    rows = _as_array(regions)
    return select_token_grids_many(
        rows, [0, len(rows)], hierarchy, [mt], min_objects=min_objects
    )[0]
