"""Exact univariate polynomials and piecewise polynomials over the rationals.

These carry all the parametric data of the decomposition sweep: negative-part
coefficients (affine in the sweep parameter v), volumes P(v)^2 (quadratic),
and the local h(v) integrands. Everything is exact. `IntQuadratic` is a
quadratic as integer numerators over one denominator: it is integrated in
closed form with one Fraction per piece, and its first root after a point
and its sign on an interval are decided on integers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .errors import IrrationalRoot, OutOfDomain
from .rationals import RatLike, format_rational, parse_rational

_ZERO = Fraction(0)


def _as_fraction(x: RatLike) -> Fraction:
    return x if isinstance(x, Fraction) else parse_rational(x)


@dataclass(frozen=True)
class Poly:
    """A polynomial with Fraction coefficients in ascending degree order.

    Trailing zeros are stripped; the zero polynomial has an empty tuple.
    """

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[RatLike] = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, v: RatLike) -> Fraction:
        v = _as_fraction(v)
        result = _ZERO
        for c in reversed(self.coeffs):
            result = result * v + c
        return result

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if k < len(self.coeffs) else _ZERO

    def __add__(self, other: "Poly | RatLike") -> "Poly":
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.coeff(i) + other.coeff(i) for i in range(n))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other: "Poly | RatLike") -> "Poly":
        return self + (-_as_poly(other))

    def __rsub__(self, other: RatLike) -> "Poly":
        return _as_poly(other) - self

    def __mul__(self, other: "Poly | RatLike") -> "Poly":
        other = _as_poly(other)
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def antiderivative(self) -> "Poly":
        """The antiderivative with zero constant term."""
        return Poly([_ZERO] + [c / (i + 1) for i, c in enumerate(self.coeffs)])

    def derivative(self) -> "Poly":
        return Poly(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def integrate(self, a: RatLike, b: RatLike) -> Fraction:
        anti = self.antiderivative()
        return anti(b) - anti(a)

    def to_strings(self) -> list[str]:
        return [format_rational(c) for c in self.coeffs]

    def render(self, var: str = "v") -> str:
        """Human-readable form like "1 - 2*v^2"."""
        if self.is_zero():
            return "0"
        parts: list[str] = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = format_rational(abs(c))
            if i == 0:
                term = mag
            else:
                pow_str = var if i == 1 else f"{var}^{i}"
                term = pow_str if abs(c) == 1 else f"{mag}*{pow_str}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self.render()})"


def _as_poly(x: "Poly | RatLike") -> Poly:
    if isinstance(x, Poly):
        return x
    return Poly([_as_fraction(x)])


def nonnegative_on(p: Poly, lo: RatLike, hi: RatLike) -> bool:
    """Exact check that a degree <= 2 polynomial is >= 0 on [lo, hi]."""
    lo, hi = _as_fraction(lo), _as_fraction(hi)
    if p.degree > 2:
        raise ValueError("nonnegative_on supports degree <= 2 only")
    if p(lo) < 0 or p(hi) < 0:
        return False
    a = p.coeff(2)
    if a > 0:
        vertex = -p.coeff(1) / (2 * a)
        if lo < vertex < hi and p(vertex) < 0:
            return False
    return True


@dataclass(frozen=True)
class PiecewisePoly:
    """Piecewise polynomial on consecutive intervals [b_i, b_{i+1}].

    When `continuous` is set, adjacent pieces must agree exactly at the
    shared breakpoints (asserted at construction and on evaluation).
    """

    breakpoints: tuple[Fraction, ...]
    pieces: tuple[Poly, ...]
    continuous: bool = True

    def __init__(
        self,
        breakpoints: Iterable[RatLike],
        pieces: Iterable[Poly | RatLike],
        continuous: bool = True,
    ):
        bps = tuple(_as_fraction(b) for b in breakpoints)
        ps = tuple(_as_poly(p) for p in pieces)
        if len(bps) < 2 or len(ps) != len(bps) - 1:
            raise ValueError("need k+1 breakpoints for k >= 1 pieces")
        if any(bps[i] >= bps[i + 1] for i in range(len(bps) - 1)):
            raise ValueError("breakpoints must be strictly increasing")
        if continuous:
            for i in range(len(ps) - 1):
                left, right = ps[i](bps[i + 1]), ps[i + 1](bps[i + 1])
                if left != right:
                    raise ValueError(
                        f"discontinuity at {format_rational(bps[i + 1])}: "
                        f"{format_rational(left)} != {format_rational(right)}"
                    )
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "pieces", ps)
        object.__setattr__(self, "continuous", continuous)

    @property
    def lo(self) -> Fraction:
        return self.breakpoints[0]

    @property
    def hi(self) -> Fraction:
        return self.breakpoints[-1]

    def _piece_index(self, v: Fraction) -> int:
        """Index of the governing piece; interior breakpoints go left."""
        if v < self.lo or v > self.hi:
            raise OutOfDomain(
                f"{format_rational(v)} outside "
                f"[{format_rational(self.lo)}, {format_rational(self.hi)}]"
            )
        if v == self.lo:
            return 0
        for i in range(1, len(self.breakpoints)):
            if v <= self.breakpoints[i]:
                return i - 1
        raise AssertionError("unreachable")

    def eval(self, v: RatLike) -> Fraction:
        v = _as_fraction(v)
        i = self._piece_index(v)
        value = self.pieces[i](v)
        if self.continuous and v == self.breakpoints[i + 1] and i + 1 < len(self.pieces):
            assert self.pieces[i + 1](v) == value, "continuity violated"
        return value

    __call__ = eval

    def integrate(self, a: RatLike, b: RatLike) -> Fraction:
        a, b = _as_fraction(a), _as_fraction(b)
        if a > b:
            raise ValueError("integration bounds out of order")
        if a < self.lo or b > self.hi:
            raise OutOfDomain(
                f"[{format_rational(a)}, {format_rational(b)}] outside "
                f"[{format_rational(self.lo)}, {format_rational(self.hi)}]"
            )
        total = _ZERO
        for i, piece in enumerate(self.pieces):
            seg_lo = max(a, self.breakpoints[i])
            seg_hi = min(b, self.breakpoints[i + 1])
            if seg_lo < seg_hi:
                total += piece.integrate(seg_lo, seg_hi)
        return total

    def refine(self, breakpoints: Sequence[RatLike]) -> "PiecewisePoly":
        """The same function on a finer breakpoint grid."""
        bps = [_as_fraction(b) for b in breakpoints]
        if bps[0] != self.lo or bps[-1] != self.hi or not set(self.breakpoints) <= set(bps):
            raise ValueError("refinement must contain the original breakpoints")
        pieces = []
        for i in range(len(bps) - 1):
            mid = (bps[i] + bps[i + 1]) / 2
            pieces.append(self.pieces[self._piece_index(mid)])
        return PiecewisePoly(bps, pieces, self.continuous)

    def __sub__(self, other: "PiecewisePoly") -> "PiecewisePoly":
        """Difference on the union of both breakpoint grids."""
        if (self.lo, self.hi) != (other.lo, other.hi):
            raise ValueError("piecewise domains differ")
        merged = tuple(sorted(set(self.breakpoints) | set(other.breakpoints)))
        a, b = self.refine(merged), other.refine(merged)
        pieces = [pa - pb for pa, pb in zip(a.pieces, b.pieces)]
        return PiecewisePoly(merged, pieces, continuous=a.continuous and b.continuous)

    @classmethod
    def from_json(cls, data: dict, continuous: bool = True) -> "PiecewisePoly":
        return cls(
            [parse_rational(b) for b in data["breakpoints"]],
            [Poly(p) for p in data["pieces"]],
            continuous=continuous,
        )

    def render(self, var: str = "v") -> str:
        rows = []
        for i, piece in enumerate(self.pieces):
            lo, hi = self.breakpoints[i], self.breakpoints[i + 1]
            rows.append(
                f"{piece.render(var)} on [{format_rational(lo)}, {format_rational(hi)}]"
            )
        return "; ".join(rows)

    def __repr__(self) -> str:
        return f"PiecewisePoly({self.render()})"


class IntQuadratic(NamedTuple):
    """(a0 + a1*v + a2*v^2) / den with integer coefficients and den > 0."""

    a0: int
    a1: int
    a2: int
    den: int

    def poly(self) -> Poly:
        den = self.den
        return Poly([Fraction(self.a0, den), Fraction(self.a1, den), Fraction(self.a2, den)])

    def scaled_at(self, u: int, w: int) -> int:
        """den * w^2 times the value at v = u/w."""
        return (self.a0 * w + self.a1 * u) * w + self.a2 * u * u

    def positive_on(self, lo: Fraction, hi: Fraction) -> bool:
        """Whether the value is > 0 everywhere on [lo, hi], decided on integers."""
        u_lo, w_lo, u_hi, w_hi = lo.numerator, lo.denominator, hi.numerator, hi.denominator
        if self.scaled_at(u_lo, w_lo) <= 0 or self.scaled_at(u_hi, w_hi) <= 0:
            return False
        a0, a1, a2 = self.a0, self.a1, self.a2
        # positive at both ends; only a convex quadratic can dip in between,
        # at its vertex -a1 / (2*a2), and it stays positive there iff disc < 0
        vertex_inside = a2 > 0 and 2 * a2 * u_lo + a1 * w_lo < 0 < 2 * a2 * u_hi + a1 * w_hi
        return not vertex_inside or a1 * a1 < 4 * a0 * a2

    def first_root(self, lo: Fraction) -> Fraction | None:
        """The smallest real root >= lo; None if there is none.

        The zero quadratic vanishes everywhere and returns lo. Raises
        IrrationalRoot when a real root >= lo exists but is irrational:
        roots are exact, never approximated.
        """
        a0, a1, a2 = self.a0, self.a1, self.a2
        u, w = lo.numerator, lo.denominator
        if a2 == 0:
            if a1 == 0:
                return lo if a0 == 0 else None
            roots = [(-a0, a1) if a1 > 0 else (a0, -a1)]
        else:
            disc = a1 * a1 - 4 * a0 * a2
            if disc < 0:
                return None
            root = math.isqrt(disc)
            if root * root != disc:
                # the larger root, vertex + sqrt(disc) / (2|a2|), is >= lo iff
                # lo <= vertex or t^2 <= disc * w^2, with t = 2*a2*(lo - vertex)*w
                t = 2 * a2 * u + a1 * w
                if a2 * t <= 0 or disc * w * w >= t * t:
                    raise IrrationalRoot(
                        f"irrational root of {self.poly().render()} at or beyond {lo}"
                    )
                return None
            # (-a1 -+ root) / (2*a2), in ascending order over a positive denominator
            b, q = (-a1, 2 * a2) if a2 > 0 else (a1, -2 * a2)
            roots = [(b - root, q), (b + root, q)]
        return next((Fraction(p, q) for p, q in roots if p * w >= u * q), None)

    def integrate(self, lo: Fraction, hi: Fraction) -> Fraction:
        """The exact integral over [lo, hi], as one Fraction.

        At v = x/w, 6 * den * w^3 times the antiderivative is
        x * (6*a0*w^2 + 3*a1*x*w + 2*a2*x^2); the two ends are put over the
        common denominator 6 * den * w_lo^3 * w_hi^3.
        """
        a0, a1, a2 = self.a0, self.a1, self.a2
        x_lo, w_lo = lo.numerator, lo.denominator
        x_hi, w_hi = hi.numerator, hi.denominator
        cube_lo, cube_hi = w_lo * w_lo * w_lo, w_hi * w_hi * w_hi
        top = x_hi * ((6 * a0 * w_hi + 3 * a1 * x_hi) * w_hi + 2 * a2 * x_hi * x_hi) * cube_lo
        top -= x_lo * ((6 * a0 * w_lo + 3 * a1 * x_lo) * w_lo + 2 * a2 * x_lo * x_lo) * cube_hi
        return Fraction(top, 6 * self.den * cube_lo * cube_hi)


def integrate_pieces(
    breakpoints: Sequence[Fraction], pieces: Sequence[IntQuadratic]
) -> Fraction:
    """Integral of a continuous piecewise quadratic over its whole domain.

    The same checks as a continuous `PiecewisePoly`: breakpoints strictly
    increasing, and adjacent pieces equal at each interior breakpoint,
    compared by integer cross-multiplication.
    """
    if len(breakpoints) < 2 or len(pieces) != len(breakpoints) - 1:
        raise ValueError("need k+1 breakpoints for k >= 1 pieces")
    total = _ZERO
    for i, piece in enumerate(pieces):
        lo, hi = breakpoints[i], breakpoints[i + 1]
        if lo >= hi:
            raise ValueError("breakpoints must be strictly increasing")
        if i:
            left = pieces[i - 1]
            u, w = lo.numerator, lo.denominator
            at_left, at_right = left.scaled_at(u, w), piece.scaled_at(u, w)
            if at_left * piece.den != at_right * left.den:
                scale = w * w
                raise ValueError(
                    f"discontinuity at {format_rational(lo)}: "
                    f"{format_rational(Fraction(at_left, left.den * scale))} != "
                    f"{format_rational(Fraction(at_right, piece.den * scale))}"
                )
        total += piece.integrate(lo, hi)
    return total
