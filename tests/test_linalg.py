"""Exact integer linear algebra."""
from __future__ import annotations

import copy
from fractions import Fraction
from itertools import permutations
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

from dpdelta.linalg import extend, solve

F = Fraction

small = st.integers(min_value=-9, max_value=9)
# zero drawn often, so leading entries vanish and rows must be swapped
entries = st.one_of(st.just(0), small)


def test_solve_multiple_right_hand_sides():
    matrix = [[2, 1], [1, 3]]
    rhs = [[3, 4], [1, 0]]
    d, cols = solve(matrix, rhs)
    # x = (1, 1) and (3/5, -1/5), as numerators over |det| = 5
    assert (d, cols) == (5, [[5, 5], [3, -1]])
    # residuals vanish exactly
    for b, col in zip(rhs, cols):
        for i, row in enumerate(matrix):
            assert sum(a * c for a, c in zip(row, col)) == d * b[i]


def test_solve_needs_row_swap():
    # det = -1: the numerators are over |det| = 1, not over -1
    assert solve([[0, 1], [1, 0]], [[5, 7]]) == (1, [[7, 5]])


def test_solve_singular_matrix():
    with pytest.raises(ValueError, match="singular matrix"):
        solve([[1, 2], [2, 4]], [[1, 1]])


def _leibniz_det(matrix):
    """det as the signed sum over permutations; shares no code with solve."""
    n = len(matrix)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(matrix[i][perm[i]] for i in range(n))
    return total


@st.composite
def systems(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    matrix = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if n and draw(st.booleans()):
        matrix[0][0] = 0
    if n >= 2 and draw(st.booleans()):
        # the last row a combination of the others makes the matrix singular
        weights = [draw(small) for _ in range(n - 1)]
        matrix[-1] = [sum(w * row[j] for w, row in zip(weights, matrix)) for j in range(n)]
    rhs = draw(st.lists(st.lists(small, min_size=n, max_size=n), min_size=1, max_size=3))
    return matrix, rhs


@settings(max_examples=300, deadline=None)
@given(system=systems())
# regular but needs a row swap; singular with a zero row
@example(system=([[0, 2, 1], [0, 1, 3], [1, 0, 0]], [[1] * 3]))
@example(system=([[0, 0], [1, 1]], [[0, 1]]))
def test_solve_is_exact_or_the_matrix_is_singular(system):
    matrix, rhs = system
    try:
        d, cols = solve(matrix, rhs)
    except ValueError as exc:
        assert str(exc) == "singular matrix"
        assert _leibniz_det(matrix) == 0
        return
    assert d == abs(_leibniz_det(matrix)) > 0
    assert len(cols) == len(rhs)
    for b, col in zip(rhs, cols):
        assert len(col) == len(matrix)
        for row, b_i in zip(matrix, b):
            assert sum(a * c for a, c in zip(row, col)) == d * b_i


@st.composite
def definite_systems(draw):
    """A = -(M^T M + I), integer right-hand sides B and an increasing index set."""
    n = draw(st.integers(min_value=0, max_value=6))
    r = draw(st.integers(min_value=1, max_value=3))
    m = [[draw(st.integers(min_value=-3, max_value=3)) for _ in range(n)] for _ in range(n)]
    a = [
        [-sum(m[k][i] * m[k][j] for k in range(n)) - (i == j) for j in range(n)]
        for i in range(n)
    ]
    b = [[draw(st.integers(min_value=-20, max_value=20)) for _ in range(r)] for _ in range(n)]
    subset = sorted(draw(st.sets(st.integers(min_value=0, max_value=n - 1)))) if n else []
    return a, b, subset


@settings(max_examples=200, deadline=None)
@given(system=definite_systems())
@example(system=([[-2, 1], [1, -2]], [[1], [3]], [0, 1]))
@example(system=([[-1, 0, 0], [0, -5, 2], [0, 2, -1]], [[4, 0], [1, 1], [-3, 2]], [2]))
def test_extend_pivots_on_the_subsystem(system):
    """On [-A | -B], pivoting on S gives d = det(-A_S), d*x on S, -d*residual off it."""
    a, b, subset = system
    n, r = len(a), len(b[0]) if b else 1
    cols = [[-a[i][c] for i in range(n)] for c in range(n)]
    state = (cols + [[-b[i][t] for i in range(n)] for t in range(r)], 1)
    for j in subset:
        before = copy.deepcopy(state)
        nxt = extend(state, j)
        assert state == before  # a state stays valid for its other extensions
        state = nxt
    cols, d = state
    assert d == _leibniz_det([[-a[i][j] for j in subset] for i in subset]) > 0
    for j in range(subset[-1] + 1 if subset else 0, n):
        # the next pivot candidate is the bordered leading minor
        grown = subset + [j]
        assert cols[j][j] == _leibniz_det([[-a[p][q] for q in grown] for p in grown])
    d_s, cols_s = solve(
        [[a[i][j] for j in subset] for i in subset], [[b[i][t] for i in subset] for t in range(r)]
    )
    xs = [[F(c, d_s) for c in col] for col in cols_s]
    for t, x in enumerate(xs):
        for i in subset:
            assert sum((a[i][s] * x_s for s, x_s in zip(subset, x)), start=F(0)) == b[i][t]
        col = cols[n + t]
        for pos, i in enumerate(subset):
            assert col[i] == d * x[pos]
        for j in range(n):
            if j not in subset:
                residual = b[j][t] - sum((a[j][s] * x_s for s, x_s in zip(subset, x)), start=F(0))
                assert col[j] == -d * residual
