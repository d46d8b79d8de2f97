"""The negative-definite subset enumeration, the tests' reference.

`dpdelta.oracle` finds its subsets inside the walk its table and brute force
read their states from (`oracle._subset_states`). This is the separate
enumeration it replaced, kept so that the table, brute force and the
sweep's supports are checked against subsets found without that walk.
"""
from __future__ import annotations

from dpdelta import SurfaceConfig
from dpdelta.linalg import State, extend


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
