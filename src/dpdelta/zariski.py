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
support is never solved twice, and looks for curves to add only in the tight
set: the curves that chamber's P meets in 0 at the breakpoint. Every support
the pivot visits there gives the same N at the breakpoint, so no other curve
can go negative right after it (`_pivot` has the argument, and tests every
curve when -K is not nef at v = 0). The one scan of a chamber's rows that
finds its end also finds that set: every row of a chamber is nonnegative on
[lo, hi], so the curves P meets in 0 at hi are those whose P.C row is
identically 0 (the support's among them) and those whose falling P.C row
has its root at hi. Drops, adds and the chamber's end are decided by
integer signs and comparisons at v = p/q, and the threshold tau (or an
irrational root) by `math.isqrt` and sign tests on P^2 as an integer
quadratic. A chamber is its two ends and these integer rows, nothing else:
`delta` integrates S and S(W;O) on them, `negative_at` evaluates N on them,
and the `Poly` views of a chamber (its support names, N coefficients, P^2
and P.C) are built from the rows only for JSON and CLI text, once each. The
sweep itself builds no `Poly`, and Fractions only for the chamber ends and
error messages. `decomposition_from_json` rebuilds every chamber through
the same rows and checks P^2(tau) = 0 on them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

from .config import SurfaceConfig
from .errors import IrrationalRoot, NotPseudoEffective, OutOfDomain, SchemaError
from .linalg import solve
from .poly import IntQuadratic, PiecewisePoly, Poly
from .rationals import (
    AffineVector,
    RatLike,
    affine_vector,
    format_rational,
    parse_rational,
    read_field,
    typed,
)

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
    the rows on first read; `p_dot_at` builds one curve's P.C row alone,
    for callers that print only the flag's. `n_affine` is N(v) in the
    canonical integer form the oracle compares its table rows with.
    Chambers compare by identity.
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
    def n_affine(self) -> AffineVector:
        """N(v) on this chamber in the canonical form of `rationals.affine_vector`."""
        rows = self.rows
        return affine_vector(rows.support, rows.x0, rows.x1, rows.n_den)

    @cached_property
    def p_sq(self) -> Poly:
        return self.p_sq_rows.poly()

    @cached_property
    def p_dot(self) -> dict[str, Poly]:
        return {name: self.p_dot_at(j) for j, name in enumerate(self.rows.curve_names)}

    def p_dot_at(self, j: int) -> Poly:
        """P(v).C for the curve of index j alone, built without the `p_dot` view."""
        rows = self.rows
        return _affine(rows.c0[j], rows.c1[j], rows.p_den)


@dataclass(frozen=True, eq=False)
class Decomposition:
    """All chambers of v -> Zariski(anti_k - v*flag) on [0, tau]."""

    config: SurfaceConfig
    flag: str
    chambers: tuple[Chamber, ...]
    tau: Fraction

    def chamber_at(self, v: RatLike) -> Chamber:
        """The first chamber whose end is at or after v; OutOfDomain off [0, tau]."""
        return self._chamber(parse_rational(v))

    def _chamber(self, v: Fraction) -> Chamber:
        """`chamber_at` for a parsed v, comparing v = p/q with each end on integers."""
        p, q = v.numerator, v.denominator
        tau = self.tau
        if p < 0 or p * tau.denominator > tau.numerator * q:
            raise OutOfDomain(
                f"v = {format_rational(v)} outside [0, {format_rational(tau)}]"
            )
        for ch in self.chambers:
            hi = ch.hi
            if p * hi.denominator <= hi.numerator * q:
                return ch

    def negative_at(self, v: RatLike) -> NegativePart:
        """The nonzero negative-part coefficients at v, read off the chamber's rows."""
        v = parse_rational(v)
        rows = self._chamber(v).rows
        p, q, names = v.numerator, v.denominator, rows.curve_names
        coeffs = {
            names[s]: c
            for s, x0, x1 in zip(rows.support, rows.x0, rows.x1)
            if (c := Fraction(x0 * q + x1 * p, rows.n_den * q))
        }
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
    # P.C = D(0).C at v = 0: every curve is tight if one is negative
    b0 = direction.b0
    tight = range(len(b0)) if min(b0) < 0 else [j for j, b in enumerate(b0) if not b]
    try:
        while len(chambers) < _MAX_CHAMBERS:
            rows = _pivot(direction, rows, v_cur, tight)
            p_sq_rows = _positive_part(direction, rows)
            hi, tight = _chamber_end(rows, p_sq_rows, v_cur)
            chambers.append(Chamber(v_cur, hi, rows, p_sq_rows))
            if tight is None:  # hi is tau
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
    j: one pass of integer dot products over the support's Gram rows, the
    first of which also scales b by d. The empty support with d = 1 shares
    the direction's own b lists, which nothing mutates.
    """
    config = direction.config
    gram = config.int_gram
    c0, c1 = direction.b0, direction.b1
    if support:
        g, a0, a1 = gram[support[0]], x0[0], x1[0]
        c0 = [d * b - a0 * x for b, x in zip(c0, g)]
        c1 = [d * b - a1 * x for b, x in zip(c1, g)]
    elif d != 1:
        c0 = [d * b for b in c0]
        c1 = [d * b for b in c1]
    for i in range(1, len(support)):
        g, a0, a1 = gram[support[i]], x0[i], x1[i]
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


def _pivot(direction: _Direction, seed: _Rows, v: Fraction, tight: Sequence[int]) -> _Rows:
    """Find the valid support just right of v, starting from a seed's rows.

    Validity is checked on the lexicographic pair (value at v, slope), in
    integers: a support coefficient must be positive immediately after v
    and a non-support curve must meet the residual nonnegatively
    immediately after v. The seed is the previous chamber's rows, so its
    support is not solved again. Returns the rows of the support it
    converges on.

    Curves are added only from `tight`, the set T of curves the seed's P
    meets in 0 at v, which the caller gives; the pivot does not walk the
    seed's rows for it. At v = 0 the seed is the empty support and T is
    read off D(0).C: when some value is negative (-K is not nef), T is
    every curve. At a later v the seed is the previous chamber, whose end
    scan returns T: every row of that chamber is nonnegative on [lo, v],
    so T is its identically 0 P.C rows (the support's among them) plus its
    falling P.C rows with root v. The seed's N and P.C are then both
    nonnegative at v, so every support the loop visits contains the
    support of the seed's N(v) and lies inside T. Each solve then gives the
    seed's N(v) at v, so a curve outside T keeps P(v).C > 0 right after v
    and is never added: the loop visits exactly the supports, and raises
    exactly the errors, of a scan over every curve.
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
        c0, c1 = rows.c0, rows.c1
        add = {j for j in tight if j not in inside and _sign_after(c0[j], c1[j], p, q) < 0}
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


def _first_root_after(rows: _Rows, lo: Fraction) -> tuple[Fraction | None, list[int]]:
    """Smallest root > lo of a falling row, and the curves whose P.C is 0 there.

    The rows are N_s on the support and P.C off it; P.C vanishes identically
    on the support, so its rows there never fall. Every row of a chamber is
    nonnegative just right of lo, where its support is valid, so every row
    is nonnegative on [lo, hi] for hi the returned root, and the P.C rows
    that vanish at hi are exactly the identically 0 ones (the support's
    among them) and the falling ones whose root is hi. One pass collects
    both: a falling P.C row that ties the best root so far joins the ties,
    and a row that beats it starts them over. A falling row whose root is
    at or before lo is skipped; that is tested only for a row that would
    beat the best. With no root after lo, the root is None and the set is
    the zero rows.
    """
    ln, ld = lo.numerator, lo.denominator
    bn, bd = 1, 0  # the best root c0 / -c1 as (numerator, denominator); 1/0 is +infinity
    for c0, c1 in zip(rows.x0, rows.x1):
        if c1 < 0 and c0 * bd < -c1 * bn and c0 * ld > -c1 * ln:
            bn, bd = c0, -c1
    zero: list[int] = []
    ties: list[int] = []
    for j, (c0, c1) in enumerate(zip(rows.c0, rows.c1)):
        if c1 < 0:
            beat = c0 * bd + c1 * bn  # the sign of (root - best)
            if beat < 0:
                if c0 * ld > -c1 * ln:
                    bn, bd = c0, -c1
                    ties = [j]
            elif not beat:
                ties.append(j)
        elif not c1 and not c0:
            zero.append(j)
    if not bd:
        return None, zero
    return Fraction(bn, bd), zero + ties


def _chamber_end(
    rows: _Rows, p_sq: IntQuadratic, lo: Fraction
) -> tuple[Fraction, list[int] | None]:
    """Smallest v > lo at which the support changes or P^2 vanishes.

    Returns (hi, tight): tight is None when hi is the pseudoeffective
    threshold tau, and otherwise the curves the chamber's P meets in 0 at
    hi, which the next pivot tests for adds (see `_first_root_after`).
    Support-change candidates come from the sign flips of the chamber's
    affine rows (N_i on the support, P.C off it), which always happen at
    rational points. If P^2 stays positive up to the first of them, the
    chamber ends there. Otherwise the first root of P^2 at or after lo is
    the threshold if it comes no later than the change; it must be rational
    or the sweep raises IrrationalRoot. Both are decided on the chamber's
    integer quadratic.
    """
    affine_next, tight = _first_root_after(rows, lo)
    if affine_next is not None and p_sq.sign_on(lo, affine_next) > 0:
        return affine_next, tight
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
        return tau, None
    if affine_next is None:
        raise NotPseudoEffective(
            f"no chamber end found after v = {format_rational(lo)}, "
            f"{_support_text(rows.curve_names, rows.support)}"
        )
    return affine_next, tight


# -- serialization -------------------------------------------------------


def decomposition_to_json(decomp: Decomposition) -> dict:
    """JSON-ready dict of the chamber structure, with rationals as strings.

    Polynomials are lists of ascending coefficients; `p_dot` is the row of
    the flag curve only, since every other row can be recomputed from the
    support coefficients.
    """
    fi = decomp.config.index(decomp.flag)
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
                "p_dot": ch.p_dot_at(fi).to_strings(),
            }
            for ch in decomp.chambers
        ],
    }


def decomposition_from_json(config: SurfaceConfig, data: object) -> Decomposition:
    """Rebuild a decomposition from its JSON form against a configuration.

    Only the support sets and their coefficients are trusted; every derived
    quantity is recomputed from the configuration and cross-checked against
    the stored `p_sq` and `p_dot` rows, and P must meet every support curve
    in 0, so a stale or tampered file raises SchemaError instead of
    round-tripping silently. The error names the configuration, the flag and
    the chamber or field path at fault.
    """
    at = f"config {config.name}: "
    data = typed(data, dict, f"{at}decomposition")
    flag = read_field(data, "flag", str, at)
    where = f"config {config.name}, flag {flag}"
    if flag not in config.curve_names:
        raise SchemaError(f"unknown flag curve {flag!r}; {where}")
    at = f"{where}: "
    if read_field(data, "config", str, at, config.name) != config.name:
        raise SchemaError(f"decomposition belongs to {data['config']!r}; {where}")
    tau = read_field(data, "tau", Fraction, at)
    direction = _direction(config, flag)
    fi, scale = direction.flag, config.anti_k_dots_den
    chambers: list[Chamber] = []

    def bad(problem: str) -> SchemaError:
        return SchemaError(f"{problem}; {where}, chamber {len(chambers)}")

    for k, raw in enumerate(read_field(data, "chambers", list[dict], at)):
        at_k = f"{at}chambers[{k}]."
        lo, hi = read_field(raw, "lo", Fraction, at_k), read_field(raw, "hi", Fraction, at_k)
        span = f"[{format_rational(lo)}, {format_rational(hi)}]"
        if lo >= hi:
            raise bad(f"empty or reversed chamber {span}")
        if not chambers and lo != 0:
            raise bad("chambers do not cover [0, tau]")
        if chambers and lo != chambers[-1].hi:
            raise bad(f"chambers leave a gap at {format_rational(chambers[-1].hi)}")
        support = read_field(raw, "support", list[str], at_k)
        if len(set(support)) != len(support):
            raise bad(f"duplicate support curve on {span}")
        n_coeffs = read_field(raw, "n_coeffs", dict[str, list[Fraction]], at_k)
        unknown = [name for name in support if name not in config.curve_names]
        if unknown or set(n_coeffs) != set(support):
            raise bad(f"support/coefficient mismatch on {span}")
        n_polys = [Poly(n_coeffs[name]) for name in support]
        if any(p.degree > 1 for p in n_polys):
            raise bad(f"non-affine negative-part coefficient on {span}")
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
        if ch.p_sq != Poly(read_field(raw, "p_sq", list[Fraction], at_k)):
            raise bad(f"stored P^2 disagrees with the recomputed one on {span}")
        if ch.p_dot_at(fi) != Poly(read_field(raw, "p_dot", list[Fraction], at_k)):
            raise bad(f"stored P.{flag} disagrees with the recomputed one on {span}")
        for s in rows.support:
            if rows.c0[s] or rows.c1[s]:
                name = config.curve_names[s]
                raise bad(
                    f"negative part not orthogonal to P: P.{name} = "
                    f"{ch.p_dot_at(s).render()} on support curve {name} on {span}"
                )
        chambers.append(ch)
    if not chambers:
        raise bad("no chambers stored")
    last = f"{where}, chamber {len(chambers) - 1}"
    if chambers[-1].hi != tau:
        raise SchemaError(f"chambers do not cover [0, tau]; {last}")
    if chambers[-1].p_sq_rows.scaled_at(tau.numerator, tau.denominator):
        raise SchemaError(f"P^2 does not vanish at the stored tau; {last}")
    return Decomposition(config, flag, tuple(chambers), tau)
