"""Exact integer linear algebra on one fraction-free pivot step.

Systems here are tiny (support sets have at most ~10 curves). `extend` is
one step of Bareiss's integer-preserving Gauss-Jordan elimination
(E. H. Bareiss, Sylvester's identity and multistep integer-preserving
Gaussian elimination, Math. Comp. 22, 1968): every intermediate entry is a
minor of the input, so all divisions are exact and every number stays an
integer. A state can be extended by any later index, so callers that visit
index subsets in depth-first order share each prefix's elimination. `solve`
pivots on every index in turn, which certifies the system negative definite
on the way, and returns its solutions as integer numerators over det(-A).

Gram matrices of curve configurations are sparse, as most curves meet few
others, so most columns a pivot updates miss its row. `extend` rescales
such a column instead of updating it, and shares it unchanged when the
pivot also keeps the scale. States therefore share column lists, and the
columns are never mutated.
"""
from __future__ import annotations

from typing import Sequence

State = tuple[list[list[int]], int]


def extend(state: State, j: int) -> State:
    """One Bareiss pivot on row and column j of an augmented integer matrix.

    `state` is (columns, prev_pivot), starting from (columns, 1): the n x
    (n + R) matrix [A | B] stored column by column, A square and B any
    number R of right-hand sides. After pivots on s_1 < ... < s_k (the set
    S), each pivot nonzero:
    - the state's pivot is d = det(A_S);
    - entry i in S of a right-hand-side column holds d * (A_S^-1 B_S)_i;
    - every other entry r of it holds d * (B_r - A_{r,S} A_S^-1 B_S);
    - entry (r, c) with r, c outside S and c > s_k is the bordered minor
      det A_{S+r, S+c}, so (j, j) for j > s_k is det A_{S+j}.
    Only the columns past j are updated: the next pivot is always past j,
    so the columns up to j are never read again and are shared with
    `state`. A column past j whose entry j is 0 misses the pivot row, and
    its update (p*x - f*0) // prev is p*x // prev, exact for the same
    reason. When also p == prev the column is unchanged, and the new state
    holds the very list `state` holds. Returns a new state and leaves
    `state` as it was, so one state can be extended by several indices.

    Sharing contract: a state's column lists may also belong to the state
    it came from, and to that state's other extensions, so no caller may
    write to them.
    """
    cols, prev = state
    fcol = cols[j]
    pivot = fcol[j]
    out = cols[: j + 1]
    for col in cols[j + 1 :]:
        y = col[j]
        if y == 0:  # the column misses the pivot row: only the scale changes
            out.append(col if pivot == prev else [pivot * x // prev for x in col])
            continue
        new = [(pivot * x - f * y) // prev for x, f in zip(col, fcol)]
        new[j] = y  # the pivot row is not updated
        out.append(new)
    return out, pivot


def solve(
    matrix: Sequence[Sequence[int]], rhs_columns: Sequence[Sequence[int]]
) -> tuple[int, list[list[int]]]:
    """Solve A x = b on integers for a symmetric negative definite A, several b at once.

    Returns (d, columns) with d = det(-A) > 0 and, for each entry b of
    `rhs_columns`, the integer column d * x. A 0 x 0 system has d = 1.

    Pivots run through `extend` on 0, ..., n-1 over [-A | -B], in order and
    with no row swap, so the pivot on i is the leading principal minor of
    -A of order i + 1. All of them are positive exactly when A is negative
    definite (Sylvester's criterion), so the solve is its own certificate:
    it raises ValueError at the first pivot that is not positive.
    """
    n = len(matrix)
    cols = [[-x for x in col] for col in zip(*matrix)]
    state = (cols + [[-x for x in b] for b in rhs_columns], 1)
    for i in range(n):
        if state[0][i][i] <= 0:
            raise ValueError("matrix not negative definite")
        state = extend(state, i)
    cols, det = state
    return det, cols[n:]
