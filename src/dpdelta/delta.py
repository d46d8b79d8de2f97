"""Global and local delta-invariant bounds from parametric decompositions.

For a flag curve F with log discrepancy A(F), the expected vanishing order
S(F) = (1/norm) * integral of P(v)^2 over [0, tau] gives the upper bound
A(F)/S(F) for delta. For a point O on F, the localized expected order
S(W; O) = (2/norm) * integral of h(v), with
h(v) = (P.F)(v) * (N.F)_O(v) + (P.F)(v)^2 / 2, gives the lower-bound ratio
A_O / S(W; O) where A_O = 1 - different(O). A flag certifies delta when every
point ratio is at least A(F)/S(F).

Both integrands are `PiecewisePoly`s built on the integer rows each chamber
keeps from the sweep, one integer quadratic per chamber. P^2 is the
chamber's `p_sq`. For h, the flag's P.F row and the point's N.F row
(the support rows weighted by the point's incidences) are integer affine
numerators, so h times 2 * p_den^2 * n_den is an integer quadratic. Building
the piecewise quadratic checks on integers that adjacent chambers agree at
their shared breakpoint, and its integral is one closed-form Fraction per
chamber.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .config import PointSpec, SurfaceConfig, point_problems
from .errors import NotCertified, SchemaError
from .poly import PiecewisePoly, Poly
from .rationals import format_rational
from .zariski import Decomposition, decomposition_for


@dataclass(frozen=True)
class PointRow:
    """Local bound at one point class of a flag."""

    point_id: str
    a_local: Fraction
    s_w: Fraction

    @property
    def ratio(self) -> Fraction:
        return self.a_local / self.s_w


@dataclass(frozen=True, eq=False)
class FlagReport:
    """Upper and lower delta bounds extracted from a single flag."""

    config: SurfaceConfig
    flag: str
    a_flag: Fraction
    s_flag: Fraction
    point_rows: tuple[PointRow, ...]

    @property
    def upper_delta(self) -> Fraction:
        return self.a_flag / self.s_flag

    @property
    def lower_delta(self) -> Fraction:
        return min([self.upper_delta] + [row.ratio for row in self.point_rows])

    @property
    def certified_equal(self) -> bool:
        """True when every point ratio is at least the flag's upper bound."""
        return all(row.ratio >= self.upper_delta for row in self.point_rows)


def s_flag(
    config: SurfaceConfig, flag: str, decomp: Decomposition | None = None
) -> Fraction:
    """Expected vanishing order S(flag) = (1/norm) * int_0^tau P(v)^2 dv."""
    decomp = decomposition_for(config, flag, decomp)
    return decomp.p_sq_piecewise().integrate() / config.norm


def h_quadratic(c0: int, c1: int, p_den: int, m0: int, m1: int, n_den: int) -> Poly:
    """h = P.F * (N.F)_O + (P.F)^2 / 2 for P.F = (c0 + c1*v) / p_den and
    (N.F)_O = (m0 + m1*v) / n_den, with p_den, n_den > 0.

    2 * p_den^2 * n_den * h = 2 * p_den * (c0 + c1*v) * (m0 + m1*v)
    + n_den * (c0 + c1*v)^2.
    """
    two_p = 2 * p_den
    return Poly(
        c0 * (two_p * m0 + n_den * c0),
        two_p * (c0 * m1 + c1 * m0) + 2 * n_den * c0 * c1,
        c1 * (two_p * m1 + n_den * c1),
        two_p * p_den * n_den,
    )


def local_h(decomp: Decomposition, point: PointSpec | str) -> PiecewisePoly:
    """The integrand h(v) = (P.F)(N.F)_O + (P.F)^2/2 at one point class,
    one integer quadratic per chamber.

    A point off the flag, or one `point_problems` refuses (a different
    outside [0, 1) or an inconsistent incidence), raises SchemaError naming
    the configuration, the flag, the point and the problem.
    """
    config, flag = decomp.config, decomp.flag
    if isinstance(point, str):
        point = config.point(point)
    if point.on_curve != flag:
        raise SchemaError(
            f"point {point.id} of config {config.name} lies on {point.on_curve}, "
            f"not on flag {flag}"
        )
    if bad := "; ".join(point_problems(config, point)):
        raise SchemaError(f"point {point.id} of config {config.name} on flag {flag}: {bad}")
    fi = config.index(flag)
    names = config.curve_names
    incidences = point.incidences
    pieces = []
    for ch in decomp.chambers:
        rows = ch.rows
        m0 = m1 = 0
        for s, x0, x1 in zip(rows.support, rows.x0, rows.x1):
            m = incidences.get(names[s], 0)
            if m:
                m0 += m * x0
                m1 += m * x1
        pieces.append(h_quadratic(rows.c0[fi], rows.c1[fi], rows.p_den, m0, m1, rows.n_den))
    return PiecewisePoly(decomp.breakpoints(), pieces)


def s_w_point(
    config: SurfaceConfig,
    flag: str,
    point: PointSpec | str,
    decomp: Decomposition | None = None,
) -> Fraction:
    """Localized expected order S(W; O) = (2/norm) * int_0^tau h(v) dv.

    A point off the flag, or one `point_problems` refuses, raises SchemaError.
    """
    decomp = decomposition_for(config, flag, decomp)
    return 2 * local_h(decomp, point).integrate() / config.norm


def flag_report(
    config: SurfaceConfig,
    flag: str,
    points: Sequence[PointSpec | str] | None = None,
    decomp: Decomposition | None = None,
) -> FlagReport:
    """Full upper/lower bound report for one flag.

    `points` defaults to every point class of the config that lies on the
    flag curve. The flag's log discrepancy comes from the config (default 1
    for curves on the surface itself, the stored value for exceptional or
    orbifold flags).
    """
    decomp = decomposition_for(config, flag, decomp)
    if points is None:
        points = config.points_on(flag)
    rows = []
    for point in points:
        if isinstance(point, str):
            point = config.point(point)
        a_local = 1 - point.different
        s_w = s_w_point(config, flag, point, decomp=decomp)
        rows.append(PointRow(point.id, a_local, s_w))
    return FlagReport(
        config=config,
        flag=flag,
        a_flag=config.discrepancy_of(flag),
        s_flag=s_flag(config, flag, decomp=decomp),
        point_rows=tuple(rows),
    )


def certify_minimum(reports: Sequence[FlagReport]) -> Fraction:
    """The certified delta from a complete family of flag reports.

    The answer is the smallest upper bound A/S among the flags. It is only
    returned when that flag's point ratios all reach the bound (so the upper
    bound is attained from below) and every other flag's lower bound clears
    it; otherwise NotCertified is raised.
    """
    if not reports:
        raise NotCertified("no flag reports supplied")
    best = min(reports, key=lambda r: r.upper_delta)
    value = best.upper_delta
    for report in reports:
        if report.upper_delta == value and report.certified_equal:
            break
    else:
        raise NotCertified(
            f"no flag with A/S = {format_rational(value)} has matching point bounds"
        )
    for report in reports:
        if report.lower_delta < value:
            raise NotCertified(
                f"flag {report.flag} on {report.config.name} only certifies "
                f"{format_rational(report.lower_delta)} < {format_rational(value)}"
            )
    return value
