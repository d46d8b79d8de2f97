"""Exact integer quadratics and piecewise quadratics."""
from __future__ import annotations

from fractions import Fraction

import pytest

from dpdelta import PiecewisePoly, Poly
from dpdelta.errors import IrrationalRoot
from dpdelta.poly import render_coeffs

F = Fraction


class TestPoly:
    def test_fields_are_in_lowest_terms(self):
        p = Poly(2, -4, 6, 8)
        assert (p.a0, p.a1, p.a2, p.den) == (1, -2, 3, 4)
        assert p == Poly(1, -2, 3, 4) and hash(p) == hash(Poly(1, -2, 3, 4))
        assert Poly(0, 0, 0, 7) == Poly(0, 0, 0, 1)
        assert p != Poly(1, -2, 3, 5)

    def test_denominator_must_be_positive(self):
        for den in (0, -1):
            with pytest.raises(ValueError, match="not positive"):
                Poly(1, 0, 0, den)

    def test_trailing_zeros_are_stripped(self):
        assert Poly(1, 2, 0, 1).coeffs == (F(1), F(2))
        assert Poly(0, 0, 0, 1).coeffs == ()
        assert Poly(0, 0, 1, 3).coeffs == (F(0), F(0), F(1, 3))

    def test_from_fractions(self):
        p = Poly.from_fractions([F(1, 2), F(3), F(-1, 4)])
        assert (p.a0, p.a1, p.a2, p.den) == (2, 12, -1, 4)
        assert p.coeffs == (F(1, 2), F(3), F(-1, 4))
        assert Poly.from_fractions([F(5, 3)]) == Poly(5, 0, 0, 3)
        assert Poly.from_fractions([]) == Poly(0, 0, 0, 1)
        with pytest.raises(ValueError):
            Poly.from_fractions([F(1)] * 4)

    def test_string_round_trip_keeps_interior_zeros(self):
        p = Poly(1, 0, -2, 1)
        assert p.to_strings() == ["1", "0", "-2"]
        assert Poly.from_fractions([F(c) for c in p.to_strings()]) == p
        assert Poly(0, 0, 0, 1).to_strings() == []

    def test_render(self):
        assert Poly(0, 0, 0, 1).render() == "0"
        assert Poly(0, 1, 0, 1).render() == "v"
        assert Poly(1, 0, -2, 1).render() == "1 - 2*v^2"
        assert Poly(-1, 2, 0, 1).render() == "-1 + 2*v"
        assert Poly(0, 5, 0, 3).render() == "5/3*v"
        assert Poly(0, 0, 1, 1).render("u") == "u^2"
        assert repr(Poly(1, 0, -2, 3)) == "Poly(1/3 - 2/3*v^2)"
        # the envelope parser prints a piece of any degree the same way
        assert render_coeffs([F(0), F(0), F(9, 8), F(1)]) == "9/8*v^2 + v^3"
        assert render_coeffs([]) == "0"


class TestValueAt:
    def test_evaluation_is_exact(self):
        p = Poly(1, 0, -2, 1)  # 1 - 2v^2
        assert p.value_at(F(1, 3)) == F(7, 9)
        assert p.value_at(F(1, 2)) == F(1, 2)
        assert Poly(0, 0, 0, 1).value_at(F(7)) == 0
        # (1 - 2v^2) / 3 at v = -3/2 over the common denominator 3 * 4
        assert Poly(1, 0, -2, 3).value_at(F(-3, 2)) == F(-7, 6)


class TestMinPositiveRoot:
    """`Poly.first_root`: the smallest root at or after lo, exactly."""

    def test_linear(self):
        q = Poly(-1, 2, 0, 3)  # (2v - 1)/3
        assert q.first_root(F(0)) == F(1, 2)
        assert q.first_root(F(3, 4)) is None
        assert Poly(1, -2, 0, 1).first_root(F(0)) == F(1, 2)  # falling

    def test_quadratic_rational_roots(self):
        p = Poly(2, -4, 2, 1)  # 2(1-v)^2
        assert p.first_root(F(0)) == 1
        q = Poly(1, 0, -1, 1)  # (1-v)(1+v)
        assert q.first_root(F(0)) == 1
        assert q.first_root(F(-2)) == -1
        assert Poly(-1, 0, 1, 4).first_root(F(-2)) == -1  # convex: same roots
        assert Poly(3, -8, 4, 1).first_root(F(1, 2)) == F(1, 2)  # root at lo

    def test_no_real_root(self):
        assert Poly(1, 0, 1, 1).first_root(F(0)) is None
        assert Poly(7, 0, 0, 1).first_root(F(0)) is None

    def test_zero_poly_roots_everywhere(self):
        assert Poly(0, 0, 0, 5).first_root(F(1, 3)) == F(1, 3)

    def test_irrational_root_refuses_to_approximate(self):
        p = Poly(1, 0, -2, 3)  # roots +-1/sqrt(2)
        message = r"^irrational root of 1/3 - 2/3\*v\^2 at or beyond 0$"
        with pytest.raises(IrrationalRoot, match=message):
            p.first_root(F(0))
        # both real roots lie below 1, so no root >= 1 exists at all
        assert p.first_root(F(1)) is None
        # between the roots only the larger one is at or after lo
        with pytest.raises(IrrationalRoot, match="at or beyond -1/2$"):
            p.first_root(F(-1, 2))
        convex = Poly(-1, 0, 2, 1)
        with pytest.raises(IrrationalRoot):
            convex.first_root(F(-1))
        assert convex.first_root(F(1)) is None


class TestSignOn:
    def test_endpoints_and_vertex(self):
        touching = Poly(2, -4, 2, 1)  # 2(1-v)^2
        assert touching.sign_on(F(0), F(2)) == 0
        assert touching.sign_on(F(0), F(1, 2)) == 1
        assert Poly(-1, 0, 1, 1).sign_on(F(0), F(2)) == -1  # v^2-1 < 0 at 0
        dip = Poly(0, -1, 1, 1)  # v^2 - v: 0 at both ends of [0, 1]
        assert dip.sign_on(F(0), F(1)) == -1  # dips at v=1/2
        assert dip.sign_on(F(1), F(2)) == 0
        assert Poly(1, -1, 1, 3).sign_on(F(0), F(1)) == 1  # vertex inside, above 0
        assert Poly(-1, 0, -1, 1).sign_on(F(-1), F(1)) == -1  # concave
        assert Poly(0, 0, 0, 1).sign_on(F(0), F(1)) == 0

    def test_difference_and_common_denominator(self):
        q = Poly.from_fractions([F(1, 2), F(0), F(-2, 3)])
        assert q == Poly(3, 0, -4, 6)
        diff = q - Poly(1, 1, 0, 4)  # (1/2 - 2/3 v^2) - (1 + v)/4
        assert diff.coeffs == (F(1, 4), F(-1, 4), F(-2, 3))
        assert diff.den > 0

    def test_tuple_operators_raise(self):
        # a quadratic is not a tuple: only - is defined on it
        q = Poly(1, 0, 0, 1)
        for op in (lambda: q + q, lambda: q * 2, lambda: 2 * q, lambda: (0,) + q):
            with pytest.raises(TypeError):
                op()
        assert q - q == Poly(0, 0, 0, 1)


def _q(*coeffs) -> Poly:
    return Poly.from_fractions([F(c) for c in coeffs])


class TestPiecewisePoly:
    def tent(self) -> PiecewisePoly:
        return PiecewisePoly([0, F(1, 2), 1], [_q(0, 1, 0), _q(1, -1, 0)])

    def test_construction_validation(self):
        with pytest.raises(ValueError):
            PiecewisePoly([0], [])
        with pytest.raises(ValueError):
            PiecewisePoly([0, 1], [_q(1, 0, 0), _q(2, 0, 0)])
        with pytest.raises(ValueError, match="strictly increasing"):
            PiecewisePoly([0, 1, 1], [_q(1, 0, 0), _q(1, 0, 0)])

    def test_continuity_is_asserted(self):
        with pytest.raises(ValueError, match="discontinuity at 1: 0 != 1"):
            PiecewisePoly([0, 1, 2], [_q(0, 0, 0), _q(1, 0, 0)])
        with pytest.raises(ValueError, match="discontinuity at 1/2: 1/2 != 3/4"):
            PiecewisePoly([0, F(1, 2), 1], [Poly(0, 1, 0, 1), Poly(3, 0, 0, 4)])
        jump = PiecewisePoly([0, 1, 2], [_q(0, 0, 0), _q(1, 0, 0)], continuous=False)
        assert not jump.continuous
        assert jump.integrate() == 1

    def test_integration(self):
        pp = self.tent()
        assert pp.lo == 0 and pp.hi == 1
        assert pp.integrate() == F(1, 4)
        # int of 3/2 v^2 over [1/3, 1/2] is (1/8 - 1/27) / 2
        assert PiecewisePoly([F(1, 3), F(1, 2)], [Poly(0, 0, 3, 2)]).integrate() == F(19, 432)

    def test_dominates_on_the_merged_grid(self):
        pp = self.tent()  # peaks at 1/2 when v = 1/2
        half = PiecewisePoly([0, F(1, 4), 1], [_q("1/2", 0, 0), _q("1/2", 0, 0)])
        assert half.dominates(pp)  # touches at v = 1/2
        assert not pp.dominates(half)
        assert not PiecewisePoly([0, 1], [_q("1/3", 0, 0)]).dominates(pp)
        jump = PiecewisePoly([0, F(1, 4), 1], [_q("1/4", 0, 0), _q(1, 0, 0)], continuous=False)
        assert jump.dominates(pp)
        assert not pp.dominates(jump)
        zero = PiecewisePoly([0, 1], [_q(0, 0, 0)])
        dip = PiecewisePoly([0, 1], [_q(0, -1, 1)])  # v^2 - v is 0 at both ends
        assert zero.dominates(dip)
        assert not dip.dominates(zero)  # decided at the vertex
        with pytest.raises(ValueError, match="piecewise domains differ"):
            pp.dominates(PiecewisePoly([0, 2], [_q(1, 0, 0)]))

    def test_render(self):
        assert self.tent().render() == "v on [0, 1/2]; 1 - v on [1/2, 1]"
