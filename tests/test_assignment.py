import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peaktrack.assignment import linear_sum_assignment, max_weight_pairs, near_pairs

from .oracles import assignment_total_oracle

BIG_M = 1000.0


@st.composite
def cost_matrices(draw):
    """Up to 6 x 7 in either orientation: tied small integers or continuous
    values, with some rows set entirely to a big-M value."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    if draw(st.booleans()):
        rows, cols = cols, rows
    value = draw(
        st.sampled_from([st.integers(0, 2).map(float), st.floats(-50.0, 50.0)])
    )
    cost = [[draw(value) for _ in range(cols)] for _ in range(rows)]
    for row in cost:
        if draw(st.integers(0, 3)) == 0:
            row[:] = [BIG_M] * cols
    return rows, cols, cost


@st.composite
def crowd_matrices(draw):
    """Up to 40 x 50 in either orientation, shaped like a crowd's IoU
    distances: each row is cheapest near its own diagonal cell, so
    neighbouring rows can share their cheapest column, and 1 elsewhere."""
    rows = draw(st.integers(1, 40))
    cols = rows + draw(st.integers(0, 10))
    cost = [[1.0] * cols for _ in range(rows)]
    near = st.sampled_from([0.0, 0.1, 0.2, 0.5])
    for i in range(rows):
        j = min(max(i + draw(st.integers(-2, 2)), 0), cols - 1)
        cost[i][j] = draw(near)
        if draw(st.integers(0, 3)) == 0:
            cost[i][min(j + 1, cols - 1)] = draw(near)
    return [list(col) for col in zip(*cost)] if draw(st.booleans()) else cost


@st.composite
def sparse_weights(draw):
    """Positive weights on the pairs of two or three blocks plus a single
    pair, at most 7 rows and 7 columns in all.  Row and column labels are
    shuffled, so the components interleave."""
    row_labels = draw(st.permutations(range(7)))
    col_labels = draw(st.permutations(range(7)))
    value = draw(st.sampled_from([st.integers(1, 3).map(float), st.floats(0.01, 50.0)]))
    weights = {}
    rows_used = cols_used = 0
    for _ in range(draw(st.integers(2, 3))):
        n, m = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        block = [(r, c) for r in range(n) for c in range(m)]
        kept = draw(st.lists(st.sampled_from(block), min_size=1, unique=True))
        for r, c in kept:
            weights[row_labels[rows_used + r], col_labels[cols_used + c]] = draw(value)
        rows_used, cols_used = rows_used + n, cols_used + m
    weights[row_labels[rows_used], col_labels[cols_used]] = draw(value)
    return weights


@st.composite
def tied_sparse_weights(draw):
    """Random pairs on up to 8 rows and 8 columns, weighing small integers
    (as ints, like IDF1's hit counts, or as floats) or a few halves, so
    equal totals are common and components come in every orientation."""
    n_rows, n_cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    cells = [(r, c) for r in range(n_rows) for c in range(n_cols)]
    pairs = draw(st.lists(st.sampled_from(cells), unique=True, max_size=24))
    value = draw(
        st.sampled_from(
            [st.integers(1, 2), st.integers(1, 2).map(float), st.sampled_from([0.5, 1.0, 1.5])]
        )
    )
    return {pair: draw(value) for pair in pairs}


def components(weights):
    """The connected components of the pairs, as (rows, cols) ascending."""
    parent = {}

    def root(node):
        while parent.setdefault(node, node) != node:
            node = parent[node]
        return node

    for r, c in weights:
        parent[root(("r", r))] = root(("c", c))
    groups = {}
    for r, c in weights:
        rows, cols = groups.setdefault(root(("r", r)), (set(), set()))
        rows.add(r)
        cols.add(c)
    return [(sorted(rows), sorted(cols)) for rows, cols in groups.values()]


# Edges on a small integer grid make equal and touching edges common; an
# infinite edge is what a gate that overflows gives.
span_edges = st.one_of(
    st.integers(-6, 6).map(float),
    st.sampled_from([-math.inf, math.inf]),
    st.floats(-1e6, 1e6),
)


@st.composite
def spans(draw):
    """A closed span (x1, y1, x2, y2), a point on either axis one time in three."""
    (x1, x2), (y1, y2) = (sorted([draw(span_edges), draw(span_edges)]) for _ in "xy")
    if draw(st.integers(0, 2)) == 0:
        x2 = x1
    if draw(st.integers(0, 2)) == 0:
        y2 = y1
    return x1, y1, x2, y2


class TestNearPairs:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(spans(), max_size=10), st.lists(spans(), max_size=10))
    def test_pairs_equal_the_double_loop_over_closed_spans(self, a, b):
        want = [
            (i, j)
            for i, (ax1, ay1, ax2, ay2) in enumerate(a)
            for j, (bx1, by1, bx2, by2) in enumerate(b)
            if ax1 <= bx2 and bx1 <= ax2 and ay1 <= by2 and by1 <= ay2
        ]
        assert near_pairs(a, b) == want

    def test_touching_spans_and_points_meet(self):
        square = [(0.0, 0.0, 1.0, 1.0)]
        corners = [(1.0, 1.0, 1.0, 1.0), (1.0, 0.0, 2.0, 0.0), (-1.0, 1.0, 0.0, 2.0)]
        assert near_pairs(square, corners) == [(0, 0), (0, 1), (0, 2)]
        assert near_pairs(corners, square) == [(0, 0), (1, 0), (2, 0)]
        assert near_pairs(square, [(1.0, 1.5, 1.0, 1.5), (1.5, 0.5, 2.0, 0.5)]) == []


class TestMaxWeightPairs:
    @settings(max_examples=400, deadline=None)
    @given(tied_sparse_weights())
    def test_pairs_equal_public_solves_per_component(self, weights):
        # the same pairs as the checked entry gives on each component's
        # dense matrix, tie for tie, keeping only the pairs of positive weight
        want = []
        for rows, cols in components(weights):
            matrix = [[weights.get((r, c), 0.0) for c in cols] for r in rows]
            for i, j in zip(*linear_sum_assignment(matrix, maximize=True)):
                if matrix[i][j] > 0:
                    want.append((rows[i], cols[j]))
        assert max_weight_pairs(weights) == sorted(want)

    @settings(max_examples=300, deadline=None)
    @given(sparse_weights())
    def test_total_matches_exhaustive_oracle(self, weights):
        pairs = max_weight_pairs(weights)
        assert pairs == sorted(pairs)
        assert all(pair in weights for pair in pairs)
        assert len({r for r, _ in pairs}) == len({c for _, c in pairs}) == len(pairs)
        rows = sorted({r for r, _ in weights})
        cols = sorted({c for _, c in weights})
        dense = [[weights.get((r, c), 0.0) for c in cols] for r in rows]
        want = assignment_total_oracle(dense, maximize=True)
        total = sum(weights[pair] for pair in pairs)
        assert math.isclose(total, want, rel_tol=1e-9, abs_tol=1e-9)

    def test_no_pairs(self):
        assert max_weight_pairs({}) == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weight_rejected(self, bad):
        # a lone pair too, which is matched without a solve
        for weights in ({(0, 0): bad}, {(0, 0): 1.0, (0, 1): bad}):
            with pytest.raises(ValueError, match="finite"):
                max_weight_pairs(weights)


class TestLinearSumAssignment:
    @settings(max_examples=400, deadline=None)
    @given(cost_matrices(), st.booleans())
    def test_total_matches_exhaustive_oracle(self, shaped, maximize):
        n_rows, n_cols, cost = shaped
        rows, cols = linear_sum_assignment(cost, maximize=maximize)
        assert len(rows) == len(cols) == min(n_rows, n_cols)
        assert len(set(rows)) == len(rows)
        assert len(set(cols)) == len(cols)
        assert rows == sorted(rows)
        total = sum(cost[r][c] for r, c in zip(rows, cols))
        want = assignment_total_oracle(cost, maximize)
        assert math.isclose(total, want, rel_tol=1e-9, abs_tol=1e-9)

    def test_constant_matrix_gives_identity(self):
        # all columns tie, so each row takes the free column the scan meets
        # last: the one with the lowest index
        rows, cols = linear_sum_assignment([[0.0] * 4 for _ in range(3)])
        assert rows == [0, 1, 2] and cols == [0, 1, 2]

    def test_ties_follow_the_documented_scan_order(self):
        # Every assignment with column 2 on row 0 or 1 is optimal; the scan
        # order picks this one, as scipy.optimize.linear_sum_assignment does.
        rows, cols = linear_sum_assignment([[2.0, 2.0, 1.0], [2.0, 2.0, 1.0], [2.0, 2.0, 2.0]])
        assert cols == [2, 1, 0]

    def test_row_whose_cheapest_column_was_labelled_searches(self):
        # Rows 0 and 1 share their cheapest column 0.  Row 0 takes it, and
        # row 1's search labels column 0, row 2's cheapest too, so row 2's
        # search goes on to the free column 1.  scipy gives the same pairs.
        cost = [[0.0, 2.0, 1.0], [0.0, 2.0, 1.0], [0.0, 0.0, 1.0]]
        assert linear_sum_assignment(cost)[1] == [0, 2, 1]
        scipy_optimize = pytest.importorskip("scipy.optimize")
        assert scipy_optimize.linear_sum_assignment(cost)[1].tolist() == [0, 2, 1]

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(cost_matrices(), crowd_matrices()), st.booleans())
    def test_pairs_match_scipy(self, drawn, maximize):
        # Not only the total: among tied optima both solvers pick the same
        # pairs.  In crowd matrices neighbouring rows share their cheapest
        # column, so searches run into matched columns.
        scipy_optimize = pytest.importorskip("scipy.optimize")
        if isinstance(drawn, tuple):
            n_rows, n_cols, cost = drawn
            drawn = np.array(cost, dtype=float).reshape(n_rows, n_cols)
        rows, cols = linear_sum_assignment(drawn, maximize=maximize)
        want_rows, want_cols = scipy_optimize.linear_sum_assignment(drawn, maximize=maximize)
        assert rows == want_rows.tolist()
        assert cols == want_cols.tolist()

    def test_whole_solve_differs_from_peeling_an_isolated_pair(self):
        # Row 2's only non-zero entry, column 0, is also column 0's only one,
        # so peeling (2, 0) off looks safe; but solving the rest,
        # [[0, 0], [2, 2]] on columns 1 and 2, gives row 1 -> column 2.  The
        # whole solve, like scipy's, gives row 1 -> column 1.
        rows, cols = linear_sum_assignment([[0, 0, 0], [0, 2, 2], [2, 0, 0]], maximize=True)
        assert cols == [2, 1, 0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("maximize", [False, True])
    def test_non_finite_entry_rejected(self, bad, maximize):
        with pytest.raises(ValueError, match="finite"):
            linear_sum_assignment([[1.0, bad], [2.0, 3.0]], maximize=maximize)

    @pytest.mark.parametrize(
        "cost", [[1.0, 2.0], [[1.0], [1.0, 2.0]], [[[1.0]]], [["x"]]], ids=str
    )
    def test_not_a_matrix_rejected(self, cost):
        with pytest.raises(ValueError, match="2-D matrix"):
            linear_sum_assignment(cost)
