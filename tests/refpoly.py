"""A plain Fraction polynomial, the tests' independent reference.

`dpdelta` computes only on its integer quadratics (`Poly`) and the
chambers' integer rows. The tests check those integer paths against this
coefficient-list arithmetic, which shares no code with them: it reads a
`Poly`'s Fraction `coeffs` and nothing else. It has only the operations the
tests use.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

from dpdelta import Poly

Scalar = Union[int, Fraction]


class RefPoly:
    """Fraction coefficients in ascending degree order, trailing zeros stripped.

    It equals a `RefPoly` or a `dpdelta.Poly` with the same coefficients.
    """

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if k < len(self.coeffs) else Fraction(0)

    def __call__(self, v: Scalar) -> Fraction:
        result = Fraction(0)
        for c in reversed(self.coeffs):
            result = result * v + c
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (RefPoly, Poly)):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __add__(self, other: RefPoly | Scalar) -> RefPoly:
        other = _lift(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return RefPoly(self.coeff(i) + other.coeff(i) for i in range(n))

    def __sub__(self, other: RefPoly | Scalar) -> RefPoly:
        return self + _lift(other) * -1

    def __mul__(self, other: RefPoly | Scalar) -> RefPoly:
        other = _lift(other)
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RefPoly(out)

    def derivative(self) -> RefPoly:
        return RefPoly(i * c for i, c in enumerate(self.coeffs) if i)

    def integrate(self, a: Scalar, b: Scalar) -> Fraction:
        anti = RefPoly([0, *(c / (i + 1) for i, c in enumerate(self.coeffs))])
        return anti(b) - anti(a)

    def __repr__(self) -> str:
        return f"RefPoly({[str(c) for c in self.coeffs]})"


def _lift(x: RefPoly | Scalar) -> RefPoly:
    return x if isinstance(x, RefPoly) else RefPoly([x])


def ref(p: Poly) -> RefPoly:
    """A `Poly`'s coefficients as a reference polynomial."""
    return RefPoly(p.coeffs)
