"""Exact polynomials, integer quadratics and piecewise quadratics."""
from __future__ import annotations

from fractions import Fraction

import pytest

from dpdelta import IntQuadratic, PiecewisePoly, Poly
from dpdelta.errors import IrrationalRoot

F = Fraction


class TestPoly:
    def test_trailing_zeros_are_stripped(self):
        assert Poly([1, 2, 0, 0]).coeffs == (F(1), F(2))
        assert Poly([0, 0]).coeffs == ()
        assert Poly([0, 0]) == Poly()

    def test_degree_and_is_zero(self):
        assert Poly().degree == -1
        assert Poly().is_zero()
        assert Poly([5]).degree == 0
        assert Poly([0, 0, "1/3"]).degree == 2

    def test_accepts_strings_ints_and_fractions(self):
        p = Poly(["1/2", 3, F(-1, 4)])
        assert p.coeffs == (F(1, 2), F(3), F(-1, 4))

    def test_evaluation_is_exact(self):
        p = Poly([1, 0, -2])  # 1 - 2v^2
        assert p(F(1, 3)) == F(7, 9)
        assert p("1/2") == F(1, 2)
        assert Poly()(F(7)) == 0

    def test_coeff_beyond_length_is_zero(self):
        assert Poly([1, 2]).coeff(5) == 0

    def test_ring_operations(self):
        p, q = Poly([1, 1]), Poly([1, -1])
        assert p * q == Poly([1, 0, -1])
        assert p + q == Poly([2])
        assert p - q == Poly([0, 2])
        assert -p == Poly([-1, -1])
        assert 2 * p == Poly([2, 2])
        assert p * 0 == Poly()
        assert "1/2" + q == Poly(["3/2", -1])
        assert 1 - q == Poly([0, 1])

    def test_calculus(self):
        p = Poly([0, 0, 3])  # 3v^2
        assert p.antiderivative() == Poly([0, 0, 0, 1])
        assert p.derivative() == Poly([0, 6])
        assert p.integrate(0, 1) == 1
        assert p.integrate("1/2", 1) == F(7, 8)
        assert Poly().derivative() == Poly()

    def test_string_round_trip_keeps_interior_zeros(self):
        p = Poly([1, 0, -2])
        assert p.to_strings() == ["1", "0", "-2"]
        assert Poly(p.to_strings()) == p
        assert Poly().to_strings() == []

    def test_render(self):
        assert Poly().render() == "0"
        assert Poly([0, 1]).render() == "v"
        assert Poly([1, 0, -2]).render() == "1 - 2*v^2"
        assert Poly([-1, 2]).render() == "-1 + 2*v"
        assert Poly([0, "5/3"]).render() == "5/3*v"
        assert Poly([0, 0, 1]).render("u") == "u^2"


class TestMinPositiveRoot:
    """`IntQuadratic.first_root`: the smallest root at or after lo, exactly."""

    def test_linear(self):
        q = IntQuadratic(-1, 2, 0, 3)  # (2v - 1)/3
        assert q.first_root(F(0)) == F(1, 2)
        assert q.first_root(F(3, 4)) is None
        assert IntQuadratic(1, -2, 0, 1).first_root(F(0)) == F(1, 2)  # falling

    def test_quadratic_rational_roots(self):
        p = IntQuadratic(2, -4, 2, 1)  # 2(1-v)^2
        assert p.first_root(F(0)) == 1
        q = IntQuadratic(1, 0, -1, 1)  # (1-v)(1+v)
        assert q.first_root(F(0)) == 1
        assert q.first_root(F(-2)) == -1
        assert IntQuadratic(-1, 0, 1, 4).first_root(F(-2)) == -1  # convex: same roots
        assert IntQuadratic(3, -8, 4, 1).first_root(F(1, 2)) == F(1, 2)  # root at lo

    def test_no_real_root(self):
        assert IntQuadratic(1, 0, 1, 1).first_root(F(0)) is None
        assert IntQuadratic(7, 0, 0, 1).first_root(F(0)) is None

    def test_zero_poly_roots_everywhere(self):
        assert IntQuadratic(0, 0, 0, 5).first_root(F(1, 3)) == F(1, 3)

    def test_irrational_root_refuses_to_approximate(self):
        p = IntQuadratic(1, 0, -2, 3)  # roots +-1/sqrt(2)
        message = r"^irrational root of 1/3 - 2/3\*v\^2 at or beyond 0$"
        with pytest.raises(IrrationalRoot, match=message):
            p.first_root(F(0))
        # both real roots lie below 1, so no root >= 1 exists at all
        assert p.first_root(F(1)) is None
        # between the roots only the larger one is at or after lo
        with pytest.raises(IrrationalRoot, match="at or beyond -1/2$"):
            p.first_root(F(-1, 2))
        convex = IntQuadratic(-1, 0, 2, 1)
        with pytest.raises(IrrationalRoot):
            convex.first_root(F(-1))
        assert convex.first_root(F(1)) is None


class TestSignOn:
    def test_endpoints_and_vertex(self):
        touching = IntQuadratic(2, -4, 2, 1)  # 2(1-v)^2
        assert touching.sign_on(F(0), F(2)) == 0
        assert touching.sign_on(F(0), F(1, 2)) == 1
        assert IntQuadratic(-1, 0, 1, 1).sign_on(F(0), F(2)) == -1  # v^2-1 < 0 at 0
        dip = IntQuadratic(0, -1, 1, 1)  # v^2 - v: 0 at both ends of [0, 1]
        assert dip.sign_on(F(0), F(1)) == -1  # dips at v=1/2
        assert dip.sign_on(F(1), F(2)) == 0
        assert IntQuadratic(1, -1, 1, 3).sign_on(F(0), F(1)) == 1  # vertex inside, above 0
        assert IntQuadratic(-1, 0, -1, 1).sign_on(F(-1), F(1)) == -1  # concave
        assert IntQuadratic(0, 0, 0, 1).sign_on(F(0), F(1)) == 0

    def test_difference_and_common_denominator(self):
        q = IntQuadratic.from_fractions([F(1, 2), F(0), F(-2, 3)])
        assert q == IntQuadratic(3, 0, -4, 6)
        diff = q - IntQuadratic(1, 1, 0, 4)  # (1/2 - 2/3 v^2) - (1 + v)/4
        assert diff.poly() == Poly([F(1, 4), F(-1, 4), F(-2, 3)])
        assert diff.den > 0


def _q(*coeffs) -> IntQuadratic:
    return IntQuadratic.from_fractions([F(c) for c in coeffs])


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
            PiecewisePoly([0, F(1, 2), 1], [IntQuadratic(0, 1, 0, 1), IntQuadratic(3, 0, 0, 4)])
        jump = PiecewisePoly([0, 1, 2], [_q(0, 0, 0), _q(1, 0, 0)], continuous=False)
        assert not jump.continuous
        assert jump.integrate() == 1

    def test_integration(self):
        pp = self.tent()
        assert pp.lo == 0 and pp.hi == 1
        assert pp.integrate() == F(1, 4)
        # int of 3/2 v^2 over [1/3, 1/2] is (1/8 - 1/27) / 2
        assert PiecewisePoly([F(1, 3), F(1, 2)], [IntQuadratic(0, 0, 3, 2)]).integrate() == F(19, 432)

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
