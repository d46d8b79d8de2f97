"""Exact univariate polynomials and piecewise quadratics over the rationals.

`Poly` has Fraction coefficients. It is the readable form of the sweep's
data: the chamber views (affine negative-part coefficients and P.C, the
quadratic P(v)^2), decomposition JSON, CLI text and the applications.

`IntQuadratic` is a quadratic as integer numerators over one denominator,
and it does the arithmetic: its first root after a point and its sign on an
interval are decided on integers, and its integral over an interval is one
Fraction in closed form. `PiecewisePoly` joins one `IntQuadratic` per
interval. P(v)^2, the local integrands h(v) and the stored class-level
envelopes all take this one form: it checks continuity on integers when
built, integrates over its whole domain, and tests whether it dominates
another piecewise quadratic.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .errors import IrrationalRoot
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

    @classmethod
    def from_fractions(cls, coeffs: Sequence[Fraction]) -> "IntQuadratic":
        """c0 + c1*v + c2*v^2 over the lcm of the coefficients' denominators."""
        den = math.lcm(*(c.denominator for c in coeffs))
        return cls(*(c.numerator * (den // c.denominator) for c in coeffs), den)

    def __sub__(self, other: "IntQuadratic") -> "IntQuadratic":
        d, e = self.den, other.den
        return IntQuadratic(
            self.a0 * e - other.a0 * d, self.a1 * e - other.a1 * d, self.a2 * e - other.a2 * d, d * e
        )

    def sign_on(self, lo: Fraction, hi: Fraction) -> int:
        """Sign of the minimum on [lo, hi], decided on integers: 1 if the
        value is > 0 throughout, 0 if it is >= 0 and touches 0, else -1."""
        u_lo, w_lo, u_hi, w_hi = lo.numerator, lo.denominator, hi.numerator, hi.denominator
        at_lo = self.scaled_at(u_lo, w_lo)
        if at_lo < 0:
            return -1
        at_hi = self.scaled_at(u_hi, w_hi)
        if at_hi < 0:
            return -1
        a0, a1, a2 = self.a0, self.a1, self.a2
        # >= 0 at both ends; only a convex quadratic can dip in between, at
        # its vertex -a1 / (2*a2), where den * 4*a2 times the value is -disc
        if a2 > 0 and 2 * a2 * u_lo + a1 * w_lo < 0 < 2 * a2 * u_hi + a1 * w_hi:
            disc = a1 * a1 - 4 * a0 * a2
            if disc >= 0:
                return -1 if disc else 0
        return 1 if at_lo and at_hi else 0

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


@dataclass(frozen=True)
class PiecewisePoly:
    """A piecewise quadratic: one `IntQuadratic` on each interval [b_i, b_{i+1}].

    Construction checks in one pass that there is one piece per interval,
    that the breakpoints strictly increase and, when `continuous` is set,
    that adjacent pieces agree at their shared breakpoint, compared by
    integer cross-multiplication.
    """

    breakpoints: tuple[Fraction, ...]
    pieces: tuple[IntQuadratic, ...]
    continuous: bool = True

    def __init__(
        self,
        breakpoints: Iterable[RatLike],
        pieces: Iterable[IntQuadratic],
        continuous: bool = True,
    ):
        bps = tuple(map(_as_fraction, breakpoints))
        ps = tuple(pieces)
        if len(bps) < 2 or len(ps) != len(bps) - 1:
            raise ValueError("need k+1 breakpoints for k >= 1 pieces")
        for i, piece in enumerate(ps):
            lo, hi = bps[i], bps[i + 1]
            u, w = lo.numerator, lo.denominator
            if u * hi.denominator >= hi.numerator * w:
                raise ValueError("breakpoints must be strictly increasing")
            if continuous and i:
                left = ps[i - 1]
                at_left, at_right = left.scaled_at(u, w), piece.scaled_at(u, w)
                if at_left * piece.den != at_right * left.den:
                    scale = w * w
                    raise ValueError(
                        f"discontinuity at {format_rational(lo)}: "
                        f"{format_rational(Fraction(at_left, left.den * scale))} != "
                        f"{format_rational(Fraction(at_right, piece.den * scale))}"
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

    def integrate(self) -> Fraction:
        """The exact integral over the whole domain, one closed form per piece."""
        bps = self.breakpoints
        return functools.reduce(
            operator.add, map(IntQuadratic.integrate, self.pieces, bps, bps[1:])
        )

    def dominates(self, other: "PiecewisePoly") -> bool:
        """Whether self >= other everywhere on their common domain.

        Each cell of the merged breakpoint grid takes the difference of the
        two pieces that govern it and decides its sign on integers.
        """
        if (self.lo, self.hi) != (other.lo, other.hi):
            raise ValueError("piecewise domains differ")
        grid = sorted(set(self.breakpoints) | set(other.breakpoints))
        i = j = 0
        for lo, hi in zip(grid, grid[1:]):
            while self.breakpoints[i + 1] <= lo:
                i += 1
            while other.breakpoints[j + 1] <= lo:
                j += 1
            if (self.pieces[i] - other.pieces[j]).sign_on(lo, hi) < 0:
                return False
        return True

    def render(self, var: str = "v") -> str:
        rows = []
        for i, piece in enumerate(self.pieces):
            lo, hi = self.breakpoints[i], self.breakpoints[i + 1]
            rows.append(
                f"{piece.poly().render(var)} on [{format_rational(lo)}, {format_rational(hi)}]"
            )
        return "; ".join(rows)

    def __repr__(self) -> str:
        return f"PiecewisePoly({self.render()})"
