"""Exact linear algebra over the rationals, on one fraction-free kernel.

Systems here are tiny (support sets have at most ~10 curves). `eliminate`
is Bareiss's integer-preserving Gauss-Jordan elimination (E. H. Bareiss,
Sylvester's identity and multistep integer-preserving Gaussian elimination,
Math. Comp. 22, 1968): every intermediate entry is a minor of the input, so
all divisions are exact and no Fraction is built inside the loop.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Matrix = Sequence[Sequence[Fraction]]


def eliminate(rows: list[list[int]]) -> int:
    """Fraction-free Gauss-Jordan on n augmented integer rows, in place.

    The first n columns hold the square matrix A, the rest any number of
    right-hand sides B. Rows are swapped only past a zero pivot. Returns
    d = +-det(A), the sign flipped once per swap; when d != 0 the rows end
    as [d*I | d*A^-1 B]. Returns 0, with the rows partly reduced, when A is
    singular.
    """
    n = len(rows)
    prev = 1
    for i in range(n):
        if rows[i][i] == 0:
            swap = next((r for r in range(i + 1, n) if rows[r][i] != 0), None)
            if swap is None:
                return 0
            rows[i], rows[swap] = rows[swap], rows[i]
        ri = rows[i]
        pivot = ri[i]
        for r in range(n):
            if r == i:
                continue
            rr = rows[r]
            factor = rr[i]
            for c in range(len(rr)):
                rr[c] = (pivot * rr[c] - factor * ri[c]) // prev
        prev = pivot
    return prev


def solve(matrix: Matrix, rhs_columns: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Solve A x = b for several right-hand sides at once.

    Returns one solution vector per entry of `rhs_columns`. Raises
    ValueError if the matrix is singular.
    """
    n = len(matrix)
    rows = []
    for i in range(n):
        row = list(matrix[i]) + [col[i] for col in rhs_columns]
        scale = math.lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (scale // x.denominator) for x in row])
    det = eliminate(rows)
    if det == 0:
        raise ValueError("singular matrix")
    return [[Fraction(rows[i][n + j], det) for i in range(n)] for j in range(len(rhs_columns))]
