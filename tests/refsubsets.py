"""The negative-definite subset enumeration and acceptance, the tests' reference.

`dpdelta.oracle` finds its subsets inside the walk its table and brute force
read their states from (`oracle._subset_states`). This is the separate
enumeration it replaced, kept so that the table, brute force and the
sweep's supports are checked against subsets found without that walk, and
a per-subset acceptance check on Fractions that the walk's bound must never
skip a subset of.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from dpdelta import SurfaceConfig
from dpdelta.linalg import State, extend, solve


def negative_definite_subsets(config: SurfaceConfig) -> tuple[tuple[int, ...], ...]:
    """All index subsets whose Gram submatrix is negative definite.

    Uses Sylvester's criterion incrementally: a DFS in ascending index order
    extends a subset by j exactly when the new leading principal minor of
    the negated Gram matrix stays positive, which a `linalg.extend` state
    exposes as the pivot candidate at j. Every subset is pivoted once.
    Includes the empty subset, and lists the subsets in DFS preorder.
    """
    gh = config.int_gram
    n = len(gh)
    out: list[tuple[int, ...]] = [()]

    def dfs(subset: tuple[int, ...], state: State) -> None:
        cols = state[0]
        for j in range(subset[-1] + 1 if subset else 0, n):
            if cols[j][j] > 0:
                out.append(subset + (j,))
                dfs(subset + (j,), extend(state, j))

    dfs((), ([[-x for x in col] for col in zip(*gh)], 1))
    return tuple(out)


def accepted_subsets(
    config: SurfaceConfig, rhs: Sequence[tuple[Fraction, Fraction]]
) -> tuple[tuple[int, ...], ...]:
    """The negative-definite subsets accepted at some v > 0, in the order above.

    rhs[r] = (c0, c1) is the right-hand side c0 + c1*v at curve r; a
    constant one, (c, 0), asks for the subsets accepted at that divisor. A
    subset S is accepted where its coefficients x, with gram_S x = rhs_S,
    and its residuals rhs_r - sum_{i in S} gram[r][i]*x_i off it are all
    >= 0. Each subset's system is solved on its own, by `linalg.solve` on
    integers scaled from the Fractions, and its conditions are compared as
    Fractions. It never reads `dpdelta.oracle`.
    """
    gram = config.int_gram  # mu * gram
    scale = math.lcm(*(c.denominator for pair in rhs for c in pair))
    ints = [[int(c * scale) for c in pair] for pair in rhs]  # scale * rhs
    out = []
    for subset in negative_definite_subsets(config):
        # det * x * scale / mu, and det * scale times each residual
        det, xs = solve(
            [[gram[i][j] for j in subset] for i in subset],
            [[ints[i][e] for i in subset] for e in (0, 1)],
        )
        off = (
            tuple(
                det * c - sum(gram[r][i] * x[t] for t, i in enumerate(subset))
                for c, x in zip(ints[r], xs)
            )
            for r in range(len(gram))
            if r not in subset
        )
        lo, hi = Fraction(0), None  # every condition so far holds on [lo, hi]
        for c0, c1 in itertools.chain(zip(*xs), off):
            if c1 > 0:
                lo = max(lo, Fraction(-c0, c1))
            elif c1 < 0:
                hi = Fraction(c0, -c1) if hi is None else min(hi, Fraction(c0, -c1))
            elif c0 < 0:
                break
            if hi is not None and (hi <= 0 or lo > hi):
                break
        else:
            out.append(subset)
    return tuple(out)
