"""Assignment on weighted pairs, by shortest augmenting paths, in pure Python.

`max_weight_pairs` is the entry every caller uses: Hungarian association,
CLEAR matching and IDF1 each pose their problem as the weights of the pairs
allowed to match, and it solves each connected component of those pairs on
its own.  `linear_sum_assignment` is the dense solver's checked entry:
Jonker and Volgenant's scheme as Crouse gives it ("On implementing 2D
rectangular assignment algorithms", IEEE TAES 2016), which scipy also
ships.  It validates and negates its input, then calls `_min_cost_pairs`,
the one place that orients a matrix, which `max_weight_pairs` calls
directly on the matrices it builds.  `near_pairs` finds the pairs worth
weighing: those of two sides whose spans meet, for gating and IoU scoring.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Mapping, Sequence

from .rules import all_finite

_NOT_A_MATRIX = "cost must be a 2-D matrix of finite entries"


def linear_sum_assignment(cost, maximize: bool = False) -> tuple[list[int], list[int]]:
    """Minimum-cost (or, with `maximize`, maximum) matching of the smaller side.

    Returns (rows, cols) as lists with rows ascending, as
    `scipy.optimize.linear_sum_assignment` does; a taller-than-wide matrix
    is solved transposed.  Raises ValueError unless `cost` (nested lists,
    or any sequence of equally long rows of numbers) is a 2-D matrix of
    finite entries; a row of ints is solved as the same floats.  Each row
    is added by one Dijkstra search on reduced costs, one pass over the
    unlabelled columns per labelled column.

    Tie rule: among the columns at the lowest path cost the search labels a
    free one if there is one.  Scanning scipy's list of unlabelled columns
    (it starts at the last column, and a labelled column's place goes to
    the list's last entry), it takes the last free column, else the first
    one, so both solvers return the same pairs.
    """
    try:
        c = [list(row) for row in cost]
        finite = all(map(all_finite, c))
    except TypeError:  # a row or an entry that is not a number
        finite = False
    if not finite or any(len(row) != len(c[0]) for row in c):
        raise ValueError(_NOT_A_MATRIX)
    if maximize:
        c = [[-x for x in row] for row in c]
    pairs = _min_cost_pairs(c)
    return [r for r, _ in pairs], [k for _, k in pairs]


def _min_cost_pairs(c: list[list[float]]) -> list[tuple[int, int]]:
    """The sorted (row, col) pairs of `_min_cost_cols` on `c`, transposed if taller than wide."""
    if c and len(c[0]) < len(c):
        row4col = _min_cost_cols([list(col) for col in zip(*c)])
        return sorted((r, k) for k, r in enumerate(row4col))
    return list(enumerate(_min_cost_cols(c)))


def _min_cost_cols(c: list[list[float]]) -> list[int]:
    """The column of each row in a minimum-cost matching of `c`.

    `c` is finite, given as lists of rows, and no taller than wide; it is
    neither copied nor checked.
    """
    nr, nc = len(c), len(c[0]) if c else 0
    u, v = [0.0] * nr, [0.0] * nc
    col4row, row4col = [-1] * nr, [-1] * nc
    for cur in range(nr):
        spc = [math.inf] * nc  # shortest path cost to each column
        path = [cur] * nc  # each column's predecessor row
        remaining = list(range(nc - 1, -1, -1))  # the unlabelled columns, in scan order
        labelled, visited = [], []
        min_val, i = 0.0, cur
        while True:
            lowest, index = math.inf, -1
            ci, ui = c[i], u[i]
            for place, k in enumerate(remaining):
                r = min_val + ci[k] - ui - v[k]
                if r < spc[k]:
                    spc[k] = r
                    path[k] = i
                if spc[k] < lowest or (spc[k] == lowest and row4col[k] < 0):
                    lowest, index = spc[k], place
            min_val = lowest
            j = remaining[index]
            labelled.append(j)
            remaining[index] = remaining[-1]  # the list's last entry moves into j's place
            remaining.pop()
            if row4col[j] < 0:
                break
            i = row4col[j]
            visited.append(i)
        u[cur] += min_val
        for i in visited:
            u[i] += min_val - spc[col4row[i]]
        for k in labelled:
            v[k] -= min_val - spc[k]
        while True:  # flip the path ending at the free column j
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def max_weight_pairs(weights: Mapping[tuple[int, int], float]) -> list[tuple[int, int]]:
    """The (row, col) pairs of a maximum-weight assignment, sorted.

    `weights` holds the pairs of positive weight; every other pair weighs 0
    and is never returned.  A weight that is not finite raises ValueError.
    Each connected component of the pairs is solved on its own, rows and
    columns ascending: a single pair is matched as it is, a larger
    component by `_min_cost_pairs`, the solver under
    `linear_sum_assignment(matrix, maximize=True)`, given the matrix that
    call would build, so the matrix is neither checked nor negated again.
    """
    if not all_finite(weights.values()):
        raise ValueError("weights must be finite")
    cols_of: dict[int, list[int]] = {}
    rows_of: dict[int, list[int]] = {}
    for r, c in weights:
        cols_of.setdefault(r, []).append(c)
        rows_of.setdefault(c, []).append(r)
    matched = []
    done: set[int] = set()
    for start, start_cols in cols_of.items():
        if start in done:
            continue
        if len(start_cols) == 1 and len(rows_of[start_cols[0]]) == 1:
            matched.append((start, start_cols[0]))  # a component of one pair
            continue
        rows, cols, stack = {start}, set(), [start]
        while stack:
            for c in cols_of[stack.pop()]:
                if c not in cols:
                    cols.add(c)
                    fresh = [r for r in rows_of[c] if r not in rows]
                    rows.update(fresh)
                    stack.extend(fresh)
        done |= rows
        rs, cs = sorted(rows), sorted(cols)
        # the matrix `linear_sum_assignment(..., maximize=True)` solves:
        # negated, and -0.0 where no pair is
        cost = [[-weights.get((r, c), 0.0) for c in cs] for r in rs]
        matched += [(rs[i], cs[j]) for i, j in _min_cost_pairs(cost) if cost[i][j] < 0]
    matched.sort()
    return matched


def near_pairs(a: Sequence[tuple], b: Sequence[tuple]) -> list[tuple[int, int]]:
    """The (i, j) pairs whose closed spans a[i] and b[j] meet on both axes, sorted.

    A span is (x1, y1, x2, y2) with x1 <= x2 and y1 <= y2; it may be a point
    or reach to +-inf, and spans that only touch meet.  One sweep over both
    sides' left edges, ascending, tests each span on y against the other
    side's open spans, kept in a heap keyed by right edge: a span whose
    right edge lies strictly left of the current left edge is popped, as no
    later span can meet it.
    """
    sides = (a, b)
    lefts = sorted((span[0], side, k) for side in (0, 1) for k, span in enumerate(sides[side]))
    open_spans: list[list[tuple]] = [[], []]  # each side's heap of (x2, index, span)
    pairs = []
    for left, side, k in lefts:
        alive = open_spans[1 - side]
        while alive and alive[0][0] < left:
            heappop(alive)
        span = sides[side][k]
        heappush(open_spans[side], (span[2], k, span))
        y1, y2 = span[1], span[3]
        for _, m, other in alive:
            if other[1] <= y2 and y1 <= other[3]:
                pairs.append((m, k) if side else (k, m))
    pairs.sort()
    return pairs
