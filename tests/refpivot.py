"""The sweep's pivot with full scans and general drops, the tests' reference.

`dpdelta.zariski._pivot` tests only the tight set, the curves the seed's P
meets in 0 at the breakpoint, which the sweep hands it, for curves to add,
and no curve but the flag ever leaves its support. This is the pivot it
replaced: after every solve it tests every curve off the support for an
add and every support curve for a drop, in one step, under a cycle guard
and a cap. It is kept so that the sweep's iterates are checked against a
rule that needs neither the exactness argument nor the sign rule.
`first_root_after` is the sweep's end scan from before that scan also
returned the tight set, kept as the reference for the scan's root.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

from dpdelta import zariski
from dpdelta.errors import NotPseudoEffective
from dpdelta.rationals import format_rational

_MAX_PIVOTS = 4096


def first_root_after(rows, lo: Fraction) -> Fraction | None:
    """Smallest root > lo of a falling row, N on the support or P.C, by one plain scan."""
    ln, ld = lo.numerator, lo.denominator
    best = None  # the root c0 / -c1 as (numerator, denominator)
    for c0, c1 in itertools.chain(zip(rows.x0, rows.x1), zip(rows.c0, rows.c1)):
        if c1 < 0 and c0 * ld > -c1 * ln and (best is None or c0 * best[1] < -c1 * best[0]):
            best = (c0, -c1)
    return None if best is None else Fraction(*best)


def full_scan_pivot(direction, seed, v: Fraction, tight):
    """A pivot that tests every curve for adds and drops any coefficient that
    is not positive right after v, in one step; `tight` is ignored."""
    names = direction.config.curve_names
    p, q = v.numerator, v.denominator
    rows, support = seed, seed.support
    seen: set[tuple[int, ...]] = set()
    for _ in range(_MAX_PIVOTS):
        key = tuple(support)
        if key in seen:
            raise NotPseudoEffective(
                f"support pivoting cycled at v = {format_rational(v)}, "
                f"{zariski._support_text(names, key)}"
            )
        seen.add(key)
        if key != rows.support:  # only the seed's rows are given
            rows = zariski._solve_support(direction, key, v)
        drop = {
            s
            for s, a0, a1 in zip(key, rows.x0, rows.x1)
            if zariski._sign_after(a0, a1, p, q) <= 0
        }
        inside = set(key)
        add = {
            j
            for j, (c0, c1) in enumerate(zip(rows.c0, rows.c1))
            if j not in inside and zariski._sign_after(c0, c1, p, q) < 0
        }
        if not drop and not add:
            return rows
        support = sorted((inside - drop) | add)
    raise NotPseudoEffective(
        f"support pivoting did not converge at v = {format_rational(v)}, "
        f"{zariski._support_text(names, support)}"
    )
