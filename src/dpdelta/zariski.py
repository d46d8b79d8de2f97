"""Parametric Zariski decompositions of anti_k - v*F, exactly over Q.

For a flag curve F the divisor D(v) = anti_k - v*F is decomposed as
D = P(v) + N(v) with P(v) nef, N(v) supported on a negative-definite set of
curves orthogonal to P(v). The support is locally constant in v, so the
decomposition is a finite list of chambers on which every negative-part
coefficient is an affine polynomial and P(v)^2 is a quadratic. The sweep
starts at v = 0 and pivots the support at each breakpoint until P^2 hits 0
at the pseudoeffective threshold tau.

The sweep decides on integers end to end. The configuration owns the
integer form: its Gram matrix as mu * gram (`int_gram`) and its (-K).C row
over one denominator, both built with the configuration. Each support
system is solved by the integer `linalg.solve` on those Gram rows, which
gives the negative part as integer numerators over |det|, and one pass of
integer dot products over the support's Gram rows gives P.C for every curve
C as an integer affine numerator over one positive denominator. Each
breakpoint's pivot starts from the rows of the chamber just left, so that
support is never solved twice. Drops, adds and the chamber's end are decided
by integer signs and comparisons at v = p/q, and the threshold tau (or an
irrational root) by `math.isqrt` and sign tests on P^2 as an integer
quadratic. A chamber is its two ends and these integer rows, nothing else:
`delta` integrates S and S(W;O) on them, and the `Poly` views of a chamber
(its support names, N coefficients, P^2 and P.C) are built from the rows
only when read, once each. The sweep itself builds no `Poly`, and Fractions
only for the chamber ends and error messages. `decomposition_from_json`
rebuilds every chamber through the same rows.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

from .config import SurfaceConfig
from .errors import IrrationalRoot, NotPseudoEffective, OutOfDomain, SchemaError
from .linalg import solve
from .poly import IntQuadratic, PiecewisePoly, Poly
from .rationals import RatLike, format_rational, parse_rational

_MAX_PIVOTS = 4096
_MAX_CHAMBERS = 64


@dataclass(frozen=True)
class NegativePart:
    """Support and coefficients of the negative part at a single divisor."""

    support: tuple[str, ...]
    coeffs: Mapping[str, Fraction]


@dataclass(frozen=True, eq=False)
class Chamber:
    """One maximal interval [lo, hi] with constant negative-part support.

    A chamber stores only the sweep's integer rows: `rows` (N on the support
    and P.C for every curve, as affine numerators) and `p_sq_rows` (P^2 as an
    integer quadratic), which `delta` integrates. `support`, `n_coeffs` (the
    affine coefficient of each support curve), `p_sq` (the quadratic P(v)^2)
    and `p_dot` (the affine P(v).C for every curve C) are views built from
    the rows on first read. Chambers compare by identity.
    """

    lo: Fraction
    hi: Fraction
    rows: _Rows = field(repr=False)
    p_sq_rows: IntQuadratic

    @cached_property
    def support(self) -> tuple[str, ...]:
        names = self.rows.curve_names
        return tuple(names[s] for s in self.rows.support)

    @cached_property
    def n_coeffs(self) -> dict[str, Poly]:
        rows = self.rows
        return {
            name: _affine(a0, a1, rows.n_den)
            for name, a0, a1 in zip(self.support, rows.x0, rows.x1)
        }

    @cached_property
    def p_sq(self) -> Poly:
        return self.p_sq_rows.poly()

    @cached_property
    def p_dot(self) -> dict[str, Poly]:
        rows = self.rows
        return {
            name: _affine(c0, c1, rows.p_den)
            for name, c0, c1 in zip(rows.curve_names, rows.c0, rows.c1)
        }


@dataclass(frozen=True, eq=False)
class Decomposition:
    """All chambers of v -> Zariski(anti_k - v*flag) on [0, tau]."""

    config: SurfaceConfig
    flag: str
    chambers: tuple[Chamber, ...]
    tau: Fraction

    def chamber_at(self, v: RatLike) -> Chamber:
        v = parse_rational(v)
        if not 0 <= v <= self.tau:
            raise OutOfDomain(
                f"v = {format_rational(v)} outside [0, {format_rational(self.tau)}]"
            )
        for ch in self.chambers:
            if v <= ch.hi:
                return ch

    def negative_at(self, v: RatLike) -> NegativePart:
        v = parse_rational(v)
        ch = self.chamber_at(v)
        coeffs = {name: p(v) for name, p in ch.n_coeffs.items()}
        coeffs = {name: c for name, c in coeffs.items() if c != 0}
        return NegativePart(tuple(sorted(coeffs)), coeffs)

    def breakpoints(self) -> list[Fraction]:
        """The chamber ends, from 0 to tau."""
        return [self.chambers[0].lo] + [ch.hi for ch in self.chambers]

    def p_sq_piecewise(self) -> PiecewisePoly:
        """P(v)^2 on [0, tau], each chamber's integer quadratic."""
        return PiecewisePoly(self.breakpoints(), [ch.p_sq_rows for ch in self.chambers])


# -- parametric sweep ---------------------------------------------------


def parametric_decompose(config: SurfaceConfig, flag: str) -> Decomposition:
    """Chamber structure of v -> Zariski(anti_k - v*flag) for v in [0, tau].

    A NotPseudoEffective or IrrationalRoot raised by the sweep names the
    support involved, and leaves here also naming the configuration, the
    flag and the index of the chamber being built.
    """
    direction = _direction(config, flag)
    chambers: list[Chamber] = []
    v_cur = Fraction(0)
    rows = _rows(direction, (), [], [], 1)  # the empty support: N = 0
    try:
        while len(chambers) < _MAX_CHAMBERS:
            rows = _pivot(direction, rows, v_cur)
            p_sq_rows = _positive_part(direction, rows)
            hi, is_tau = _chamber_end(rows, p_sq_rows, v_cur)
            chambers.append(Chamber(v_cur, hi, rows, p_sq_rows))
            if is_tau:
                return Decomposition(config, flag, tuple(chambers), hi)
            v_cur = hi
        raise NotPseudoEffective(
            f"chamber sweep did not terminate after v = {format_rational(v_cur)}, "
            f"{_support_text(rows.curve_names, rows.support)}"
        )
    except (NotPseudoEffective, IrrationalRoot) as exc:
        raise type(exc)(
            f"{exc}; config {config.name}, flag {flag}, chamber {len(chambers)}"
        ) from exc


def decomposition_for(
    config: SurfaceConfig, flag: str, decomp: Decomposition | None = None
) -> Decomposition:
    """`decomp` if it is the sweep of `flag` on `config`; a new sweep if None.

    A decomposition of another flag or another configuration raises
    ValueError naming both, instead of silently answering for them.
    """
    if decomp is None:
        return parametric_decompose(config, flag)
    if decomp.flag != flag:
        raise ValueError(
            f"decomposition of flag {decomp.flag} passed for flag {flag} "
            f"on config {config.name}"
        )
    if decomp.config is not config:
        raise ValueError(
            f"decomposition swept on config {decomp.config.name} passed for "
            f"another config {config.name}, flag {flag}"
        )
    return decomp


def _support_text(names: Sequence[str], support: Iterable[int]) -> str:
    return f"support ({', '.join(names[s] for s in support)})"


# -- integer rows ----------------------------------------------------------


class _Direction(NamedTuple):
    """D(v) = anti_k - v*flag on one configuration, as integer rows.

    mu * scale * D(v).C_j = b0[j] + b1[j]*v for every curve j, where mu is
    the configuration's Gram denominator and scale = `anti_k_dots_den`.
    """

    config: SurfaceConfig
    flag: int
    b0: list[int]
    b1: list[int]
    d_sq: IntQuadratic


def _direction(config: SurfaceConfig, flag: str) -> _Direction:
    fi = config.index(flag)
    mu, scale = config.mu, config.anti_k_dots_den
    b0 = [mu * k for k in config.int_anti_k_dots]
    b1 = [-scale * g for g in config.int_gram[fi]]
    d_coeffs = (config.norm, -2 * config.anti_k_dots[fi], config.gram[fi][fi])
    return _Direction(config, fi, b0, b1, IntQuadratic.from_fractions(d_coeffs))


class _Rows(NamedTuple):
    """One support's affine rows as integer numerators over positive denominators.

    N_s(v) = (x0[i] + x1[i]*v) / n_den for the i-th support index s, and
    P(v).C_j = (c0[j] + c1[j]*v) / p_den for every curve j, named
    `curve_names[j]` (the configuration's own tuple).
    """

    curve_names: tuple[str, ...]
    support: tuple[int, ...]
    x0: list[int]
    x1: list[int]
    n_den: int
    c0: list[int]
    c1: list[int]
    p_den: int


def _rows(
    direction: _Direction,
    support: Sequence[int],
    x0: list[int],
    x1: list[int],
    d: int,
) -> _Rows:
    """The rows of the negative part with scale * N_s(v) = (x0[i] + x1[i]*v) / d.

    d * mu * scale * P.C_j = d * b_j - sum_s x_s * (mu * C_s.C_j) for every
    j: one pass of integer dot products over the support's Gram rows.
    """
    c0 = [d * b for b in direction.b0]
    c1 = [d * b for b in direction.b1]
    config = direction.config
    for s, a0, a1 in zip(support, x0, x1):
        g = config.int_gram[s]
        if a0:
            c0 = [c - a0 * x for c, x in zip(c0, g)]
        if a1:
            c1 = [c - a1 * x for c, x in zip(c1, g)]
    n_den = d * config.anti_k_dots_den
    return _Rows(config.curve_names, tuple(support), x0, x1, n_den, c0, c1, n_den * config.mu)


def _sign_after(c0: int, c1: int, p: int, q: int) -> int:
    """Sign of c0 + c1*v immediately to the right of v = p/q, with q > 0.

    The sign of the value decides; at a root, the sign of the slope.
    """
    value = c0 * q + c1 * p
    if value:
        return 1 if value > 0 else -1
    return (c1 > 0) - (c1 < 0)


def _solve_support(direction: _Direction, support: tuple[int, ...]) -> _Rows:
    """Rows of the solution of gram_S N = D_S on the support S.

    The system is solved as (mu * gram_S) y = mu * scale * D_S, so
    y = scale * N. Raises ValueError if gram_S is singular.
    """
    gram = direction.config.int_gram
    matrix = [[gram[a][b] for b in support] for a in support]
    rhs = [[direction.b0[a] for a in support], [direction.b1[a] for a in support]]
    d, (x0, x1) = solve(matrix, rhs)
    return _rows(direction, support, x0, x1, d)


def _pivot(direction: _Direction, seed: _Rows, v: Fraction) -> _Rows:
    """Find the valid support just right of v, starting from a seed's rows.

    Validity is checked on the lexicographic pair (value at v, slope), in
    integers: a support coefficient must be positive immediately after v
    and a non-support curve must meet the residual nonnegatively
    immediately after v. The seed is the previous chamber's rows, so its
    support is not solved again. Returns the rows of the support it
    converges on.
    """
    names = direction.config.curve_names
    p, q = v.numerator, v.denominator
    rows, support = seed, seed.support
    seen: set[tuple[int, ...]] = set()
    for _ in range(_MAX_PIVOTS):
        key = tuple(support)
        if key in seen:
            raise NotPseudoEffective(
                f"support pivoting cycled at v = {format_rational(v)}, "
                f"{_support_text(names, key)}"
            )
        seen.add(key)
        if key != rows.support:  # only the seed's rows are given
            try:
                rows = _solve_support(direction, key)
            except ValueError:
                raise NotPseudoEffective(
                    f"singular Gram matrix at v = {format_rational(v)}, "
                    f"{_support_text(names, key)}"
                ) from None
        drop = {s for s, a0, a1 in zip(key, rows.x0, rows.x1) if _sign_after(a0, a1, p, q) <= 0}
        inside = set(key)
        add = {
            j
            for j, (c0, c1) in enumerate(zip(rows.c0, rows.c1))
            if j not in inside and _sign_after(c0, c1, p, q) < 0
        }
        if not drop and not add:
            return rows
        support = sorted((inside - drop) | add)
    raise NotPseudoEffective(
        f"support pivoting did not converge at v = {format_rational(v)}, "
        f"{_support_text(names, support)}"
    )


def _affine(a0: int, a1: int, den: int) -> Poly:
    """(a0 + a1*v) / den as a polynomial."""
    return Poly([Fraction(a0, den), Fraction(a1, den)])


def _positive_part(direction: _Direction, rows: _Rows) -> IntQuadratic:
    """P^2 on a chamber: D^2 - N.D, as P.N = 0, with N.D summed on integers."""
    q0 = q1 = q2 = 0
    for s, a0, a1 in zip(rows.support, rows.x0, rows.x1):
        b0, b1 = direction.b0[s], direction.b1[s]
        q0 += a0 * b0
        q1 += a0 * b1 + a1 * b0
        q2 += a1 * b1
    den = rows.n_den * direction.config.mu * direction.config.anti_k_dots_den
    d0, d1, d2, d_den = direction.d_sq
    return IntQuadratic(
        d0 * den - q0 * d_den, d1 * den - q1 * d_den, d2 * den - q2 * d_den, d_den * den
    )


def _first_root_after(rows: _Rows, lo: Fraction) -> Fraction | None:
    """Smallest root > lo of a falling row: N_s on the support, P.C off it.

    P.C vanishes identically on the support, so its rows there never fall.
    """
    ln, ld = lo.numerator, lo.denominator
    best: tuple[int, int] | None = None  # the root c0 / -c1 as (numerator, denominator)
    for c0, c1 in itertools.chain(zip(rows.x0, rows.x1), zip(rows.c0, rows.c1)):
        if c1 < 0 and c0 * ld > -c1 * ln and (best is None or c0 * best[1] < -c1 * best[0]):
            best = (c0, -c1)
    return None if best is None else Fraction(*best)


def _chamber_end(rows: _Rows, p_sq: IntQuadratic, lo: Fraction) -> tuple[Fraction, bool]:
    """Smallest v > lo at which the support changes or P^2 vanishes.

    Returns (hi, is_tau). Support-change candidates come from the sign flips
    of the chamber's affine rows (N_i on the support, P.C off it), which
    always happen at rational points. If P^2 stays positive up to the first
    of them, the chamber ends there. Otherwise the first root of P^2 at or
    after lo is the pseudoeffective threshold if it comes no later than the
    change; it must be rational or the sweep raises IrrationalRoot. Both are
    decided on the chamber's integer quadratic.
    """
    affine_next = _first_root_after(rows, lo)
    if affine_next is not None and p_sq.sign_on(lo, affine_next) > 0:
        return affine_next, False
    try:
        tau = p_sq.first_root(lo)
    except IrrationalRoot as exc:
        raise IrrationalRoot(f"{exc}, {_support_text(rows.curve_names, rows.support)}") from exc
    if tau == lo:
        raise NotPseudoEffective(
            f"P^2 already vanishes at v = {format_rational(lo)}, "
            f"{_support_text(rows.curve_names, rows.support)}"
        )
    if tau is not None and (affine_next is None or tau <= affine_next):
        return tau, True
    if affine_next is None:
        raise NotPseudoEffective(
            f"no chamber end found after v = {format_rational(lo)}, "
            f"{_support_text(rows.curve_names, rows.support)}"
        )
    return affine_next, False


# -- serialization -------------------------------------------------------


def decomposition_to_json(decomp: Decomposition) -> dict:
    """JSON-ready dict of the chamber structure, with rationals as strings.

    Polynomials are lists of ascending coefficients; `p_dot` is the row of
    the flag curve only, since every other row can be recomputed from the
    support coefficients.
    """
    return {
        "config": decomp.config.name,
        "flag": decomp.flag,
        "tau": format_rational(decomp.tau),
        "chambers": [
            {
                "lo": format_rational(ch.lo),
                "hi": format_rational(ch.hi),
                "support": list(ch.support),
                "n_coeffs": {name: ch.n_coeffs[name].to_strings() for name in ch.support},
                "p_sq": ch.p_sq.to_strings(),
                "p_dot": ch.p_dot[decomp.flag].to_strings(),
            }
            for ch in decomp.chambers
        ],
    }


def decomposition_from_json(config: SurfaceConfig, data: Mapping) -> Decomposition:
    """Rebuild a decomposition from its JSON form against a configuration.

    Only the support sets and their coefficients are trusted; every derived
    quantity is recomputed from the configuration and cross-checked against
    the stored `p_sq` and `p_dot` rows, and P must meet every support curve
    in 0, so a stale or tampered file raises SchemaError instead of
    round-tripping silently. The error names the configuration, the flag and
    the index of the chamber at fault.
    """
    flag = str(data["flag"])
    where = f"config {config.name}, flag {flag}"
    if flag not in config.curve_names:
        raise SchemaError(f"unknown flag curve {flag!r}; {where}")
    if "config" in data and data["config"] != config.name:
        raise SchemaError(f"decomposition belongs to {data['config']!r}; {where}")
    try:
        tau = parse_rational(data["tau"])
    except SchemaError as exc:
        raise SchemaError(f"tau: {exc}; {where}") from exc
    direction = _direction(config, flag)
    fi, scale = direction.flag, config.anti_k_dots_den
    chambers: list[Chamber] = []
    try:
        for raw in data["chambers"]:
            lo, hi = parse_rational(raw["lo"]), parse_rational(raw["hi"])
            span = f"[{format_rational(lo)}, {format_rational(hi)}]"
            if lo >= hi:
                raise SchemaError(f"empty or reversed chamber {span}")
            support = tuple(str(name) for name in raw["support"])
            if len(set(support)) != len(support):
                raise SchemaError(f"duplicate support curve on {span}")
            unknown = [name for name in support if name not in config.curve_names]
            if unknown or set(raw["n_coeffs"]) != set(support):
                raise SchemaError(f"support/coefficient mismatch on {span}")
            n_polys = [Poly(raw["n_coeffs"][name]) for name in support]
            if any(p.degree > 1 for p in n_polys):
                raise SchemaError(f"non-affine negative-part coefficient on {span}")
            # scale * N_s = x_s / d with one denominator d over every coefficient
            d = math.lcm(*(c.denominator for p in n_polys for c in p.coeffs))
            rows = _rows(
                direction,
                [config.index(name) for name in support],
                [int(p.coeff(0) * d * scale) for p in n_polys],
                [int(p.coeff(1) * d * scale) for p in n_polys],
                d,
            )
            ch = Chamber(lo, hi, rows, _positive_part(direction, rows))
            if ch.p_sq != Poly(raw["p_sq"]):
                raise SchemaError(f"stored P^2 disagrees with the recomputed one on {span}")
            if _affine(rows.c0[fi], rows.c1[fi], rows.p_den) != Poly(raw["p_dot"]):
                raise SchemaError(
                    f"stored P.{flag} disagrees with the recomputed one on {span}"
                )
            for s in rows.support:
                if rows.c0[s] or rows.c1[s]:
                    name = config.curve_names[s]
                    p_dot = _affine(rows.c0[s], rows.c1[s], rows.p_den).render()
                    raise SchemaError(
                        f"negative part not orthogonal to P: P.{name} = {p_dot} "
                        f"on support curve {name} on {span}"
                    )
            chambers.append(ch)
        if not chambers:
            raise SchemaError("no chambers stored")
    except SchemaError as exc:
        raise SchemaError(f"{exc}; {where}, chamber {len(chambers)}") from exc
    last = len(chambers) - 1
    if chambers[0].lo != 0:
        raise SchemaError(f"chambers do not cover [0, tau]; {where}, chamber 0")
    if chambers[-1].hi != tau:
        raise SchemaError(f"chambers do not cover [0, tau]; {where}, chamber {last}")
    for i in range(1, len(chambers)):
        if chambers[i - 1].hi != chambers[i].lo:
            raise SchemaError(
                f"chambers leave a gap at {format_rational(chambers[i - 1].hi)}; "
                f"{where}, chamber {i}"
            )
    if chambers[-1].p_sq(tau) != 0:
        raise SchemaError(f"P^2 does not vanish at the stored tau; {where}, chamber {last}")
    return Decomposition(config, flag, tuple(chambers), tau)
