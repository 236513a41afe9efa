"""Rectangular linear sum assignment by shortest augmenting paths, in numpy.

Jonker and Volgenant's scheme as Crouse gives it ("On implementing 2D
rectangular assignment algorithms", IEEE TAES 2016), which scipy also ships.
"""

from __future__ import annotations

import numpy as np


def linear_sum_assignment(cost, maximize: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-cost (or, with `maximize`, maximum) matching of the smaller side.

    Returns (rows, cols) with rows ascending, as
    `scipy.optimize.linear_sum_assignment` does; a taller-than-wide matrix
    is solved transposed.  Raises ValueError unless `cost` is a 2-D matrix
    of finite entries.  Each row is added by one Dijkstra search on reduced
    costs, vectorised over the columns.

    Tie rule: among the columns at the lowest path cost the search labels a
    free one if there is one.  Scanning scipy's list of unlabelled columns
    (it starts at the last column, and a labelled column's place goes to
    the list's last entry), it takes the last free column, else the first
    one, so both solvers return the same pairs.

    Seed pass: one argmin over the matrix gives each row its cheapest
    column, the lowest index among ties.  A row whose cheapest column is
    still free takes it without a search, as the search would in its first
    step: the scan meets the lowest tied free column last, and no dual
    moves.  A search lowers v only on the columns it labels, and those stay
    matched, so a free column still has v = 0 and the argmin stays exact
    for it; a row whose cheapest column was taken runs a search.  The tie
    rule and the pairs are unchanged.
    """
    c = np.array(cost, dtype=np.float64)
    if c.ndim != 2 or not np.isfinite(c).all():
        raise ValueError("cost must be a 2-D matrix of finite entries")
    transpose = c.shape[1] < c.shape[0]
    if transpose:
        c = np.ascontiguousarray(c.T)
    if maximize:
        c = -c
    nr, nc = c.shape
    u, v = np.zeros(nr), np.zeros(nc)
    col4row = np.full(nr, -1, dtype=np.intp)
    row4col = np.full(nc, -1, dtype=np.intp)
    # each row's cheapest column (the lowest index among ties); a row's u
    # stays 0 until it is processed
    best = c.argmin(axis=1) if nc else np.zeros(0, dtype=np.intp)
    for cur in range(nr):
        j = best[cur]
        if row4col[j] < 0:  # the search would label j first and stop there
            u[cur] += c[cur, j]
            row4col[j], col4row[cur] = cur, j
            continue
        spc = c[cur] - u[cur] - v  # shortest path cost to each column
        path = np.full(nc, cur, dtype=np.intp)  # each column's predecessor row
        labelled = np.zeros(nc, dtype=bool)
        pos = np.arange(nc - 1, -1, -1)  # each unlabelled column's place in the list
        n, visited = nc, []
        while True:
            open_cost = np.where(labelled, np.inf, spc)
            at_min = np.flatnonzero(open_cost == open_cost.min())
            free = at_min[row4col[at_min] < 0]
            j = free[pos[free].argmax()] if free.size else at_min[pos[at_min].argmin()]
            min_val = spc[j]
            labelled[j] = True
            if row4col[j] < 0:
                break
            n -= 1
            pos[pos == n] = pos[j]  # the list's last entry moves into j's place
            i = row4col[j]
            visited.append(i)
            r = min_val + c[i] - u[i] - v
            better = (r < spc) & ~labelled
            spc[better] = r[better]
            path[better] = i
        u[cur] += min_val
        if visited:  # else only the sink is labelled, and its dual moves by 0
            rows = np.array(visited, dtype=np.intp)
            u[rows] += min_val - spc[col4row[rows]]
            v[labelled] -= min_val - spc[labelled]
        while True:  # flip the path ending at the free column j
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    if transpose:
        order = np.argsort(col4row)
        return col4row[order], order
    return np.arange(nr), col4row
