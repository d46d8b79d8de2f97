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
# zero drawn often, so leading minors vanish
entries = st.one_of(st.just(0), small)


def test_solve_multiple_right_hand_sides():
    matrix = [[-2, 1], [1, -3]]
    rhs = [[-1, -2], [1, 0]]
    d, cols = solve(matrix, rhs)
    # x = (1, 1) and (-3/5, -1/5), as numerators over det(-A) = 5
    assert (d, cols) == (5, [[5, 5], [-3, -1]])
    # residuals vanish exactly
    for b, col in zip(rhs, cols):
        for i, row in enumerate(matrix):
            assert sum(a * c for a, c in zip(row, col)) == d * b[i]


def test_solve_singular_matrix():
    # negative semidefinite: the first pivot is 1, the second det = 0
    with pytest.raises(ValueError, match="matrix not negative definite"):
        solve([[-1, 1], [1, -1]], [[1, 1]])


def test_solve_refuses_a_nonsingular_indefinite_matrix():
    # det = -1, and a row swap would solve it; the first pivot is 0
    with pytest.raises(ValueError, match="matrix not negative definite"):
        solve([[0, 1], [1, 0]], [[5, 7]])
    with pytest.raises(ValueError, match="matrix not negative definite"):
        solve([[1, 0], [0, 1]], [[5, 7]])


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
    """A square A, either any integers or -(M^T M + D) with D a 0/1 diagonal, and B.

    The second kind is negative semidefinite, and definite unless D leaves
    a kernel; the last row a combination of the others makes A singular.
    """
    n = draw(st.integers(min_value=0, max_value=5))
    if draw(st.booleans()):
        matrix = [[draw(entries) for _ in range(n)] for _ in range(n)]
    else:
        m = [[draw(st.integers(min_value=-3, max_value=3)) for _ in range(n)] for _ in range(n)]
        diag = [draw(st.integers(min_value=0, max_value=1)) for _ in range(n)]
        matrix = [
            [-sum(m[k][i] * m[k][j] for k in range(n)) - (i == j) * diag[i] for j in range(n)]
            for i in range(n)
        ]
    if n >= 2 and draw(st.booleans()):
        weights = [draw(small) for _ in range(n - 1)]
        matrix[-1] = [sum(w * row[j] for w, row in zip(weights, matrix)) for j in range(n)]
    rhs = draw(st.lists(st.lists(small, min_size=n, max_size=n), min_size=1, max_size=3))
    return matrix, rhs


@settings(max_examples=300, deadline=None)
@given(system=systems())
# regular, but solvable only with a row swap; singular with a zero row
@example(system=([[0, 2, 1], [0, 1, 3], [1, 0, 0]], [[1] * 3]))
@example(system=([[0, 0], [1, 1]], [[0, 1]]))
# negative definite; negative semidefinite and singular
@example(system=([[-2, 1, 0], [1, -2, 1], [0, 1, -2]], [[1, 0, -1], [0, 0, 0]]))
@example(system=([[-1, 1], [1, -1]], [[0, 1]]))
def test_solve_is_exact_or_a_leading_minor_is_not_positive(system):
    matrix, rhs = system
    before = copy.deepcopy(system)
    n = len(matrix)
    # the leading principal minors of -A, each by Leibniz
    minors = [_leibniz_det([[-x for x in row[:k]] for row in matrix[:k]]) for k in range(1, n + 1)]
    try:
        d, cols = solve(matrix, rhs)
    except ValueError as exc:
        assert str(exc) == "matrix not negative definite"
        assert min(minors) <= 0
        return
    finally:
        assert (matrix, rhs) == before  # solve writes to copies only
    assert all(m > 0 for m in minors)
    assert d == _leibniz_det([[-x for x in row] for row in matrix]) > 0
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


def _dense_step(state, j):
    """The Bareiss step updating every column past j, with the exactness it relies on."""
    cols, prev = state
    fcol = cols[j]
    pivot = fcol[j]
    out = [list(col) for col in cols[: j + 1]]
    for col in cols[j + 1 :]:
        y = col[j]
        new = []
        for x, f in zip(col, fcol):
            q, r = divmod(pivot * x - f * y, prev)
            assert r == 0
            new.append(q)
        new[j] = y
        out.append(new)
    return out, pivot


@st.composite
def sparse_systems(draw):
    """A block-diagonal negative definite A with its indices shuffled, sparse B, a subset.

    Blocks are (-1)-points, (-2)-chains (the negated A_k Cartan matrices) and
    small dense -(M^T M + I). A pivot on a (-1)-point keeps the pivot value,
    and a pivot on a chain changes it; a column of another block misses the
    pivot row either way.
    """
    kinds = st.lists(st.sampled_from(["point", "chain", "dense"]), min_size=1, max_size=4)
    pieces = []
    for kind in draw(kinds):
        if kind == "point":
            pieces.append([[-1]])
            continue
        k = draw(st.integers(min_value=1, max_value=3))
        if kind == "chain":
            pieces.append(
                [[-2 if i == j else int(abs(i - j) == 1) for j in range(k)] for i in range(k)]
            )
        else:
            m = [[draw(st.integers(min_value=-2, max_value=2)) for _ in range(k)] for _ in range(k)]
            mtm = [[sum(m[t][i] * m[t][j] for t in range(k)) for j in range(k)] for i in range(k)]
            pieces.append([[-mtm[i][j] - (i == j) for j in range(k)] for i in range(k)])
    n = sum(len(piece) for piece in pieces)
    a = [[0] * n for _ in range(n)]
    at = 0
    for piece in pieces:
        for i, row in enumerate(piece):
            a[at + i][at : at + len(piece)] = row
        at += len(piece)
    order = draw(st.permutations(range(n)))
    a = [[a[order[i]][order[j]] for j in range(n)] for i in range(n)]
    r = draw(st.integers(min_value=1, max_value=2))
    sparse = st.one_of(st.just(0), st.integers(min_value=-9, max_value=9))
    b = [[draw(sparse) for _ in range(r)] for _ in range(n)]
    subset = sorted(draw(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1)))
    return a, b, subset


@settings(max_examples=300, deadline=None)
@given(system=sparse_systems())
# a chain pivot, then a point: the pivot value changes, then stays
@example(system=([[-2, 0, 1], [0, -1, 0], [1, 0, -2]], [[0], [3], [1]], [0, 1, 2]))
def test_extend_matches_the_dense_step_on_sparse_systems(system):
    a, b, subset = system
    n = len(a)
    cols = [[-a[i][c] for i in range(n)] for c in range(n)]
    state = (cols + [[-row[t] for row in b] for t in range(len(b[0]))], 1)
    for j in subset:
        before = copy.deepcopy(state)
        nxt = extend(state, j)
        assert state == before  # a state stays valid for its other extensions
        assert nxt == _dense_step(state, j)
        pivot, prev = nxt[1], state[1]
        for old, new in zip(state[0][j + 1 :], nxt[0][j + 1 :]):
            # a column that misses the pivot row and keeps its scale is shared
            assert (new is old) == (old[j] == 0 and pivot == prev)
        state = nxt


def test_extend_shares_a_column_it_leaves_unchanged():
    # a (-1)-point at 0, a (-2)-chain at 1 and 2; two right-hand sides
    cols = [[1, 0, 0], [0, 2, -1], [0, -1, 2], [0, 4, 3], [0, 0, 3]]
    state = (cols, 1)
    one = extend(state, 0)  # pivot 1 == prev 1, and no column past 0 meets row 0
    assert one[1] == 1
    assert all(new is old for new, old in zip(one[0], cols))
    two = extend(one, 1)  # pivot 2 != prev 1
    assert two[1] == 2
    assert two[0][2] == [0, -1, 3] and two[0][3] == [0, 4, 10]
    assert two[0][4] == [0, 0, 6]  # misses row 1, so only rescaled
    assert all(col is not old for col, old in zip(two[0][2:], cols[2:]))
    assert state == ([[1, 0, 0], [0, 2, -1], [0, -1, 2], [0, 4, 3], [0, 0, 3]], 1)
