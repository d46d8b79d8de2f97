"""Exact polynomial and piecewise-polynomial arithmetic."""
from __future__ import annotations

from fractions import Fraction

import pytest

from dpdelta import OutOfDomain, PiecewisePoly, Poly
from dpdelta.errors import IrrationalRoot
from dpdelta.poly import IntQuadratic, nonnegative_on

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


class TestNonnegativeOn:
    def test_endpoints_and_vertex(self):
        assert nonnegative_on(Poly([2, -4, 2]), 0, 2)  # 2(1-v)^2
        assert not nonnegative_on(Poly([-1, 0, 1]), 0, 2)  # v^2-1 < 0 at 0
        assert not nonnegative_on(Poly([0, -1, 1]), 0, 1)  # dips at v=1/2
        assert nonnegative_on(Poly([0, -1, 1]), 1, 2)
        assert nonnegative_on(Poly(), 0, 1)

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            nonnegative_on(Poly([0, 0, 0, 1]), 0, 1)


class TestPiecewisePoly:
    def tent(self) -> PiecewisePoly:
        return PiecewisePoly([0, "1/2", 1], [Poly([0, 1]), Poly([1, -1])])

    def test_construction_validation(self):
        with pytest.raises(ValueError):
            PiecewisePoly([0], [])
        with pytest.raises(ValueError):
            PiecewisePoly([0, 1], [Poly([1]), Poly([2])])
        with pytest.raises(ValueError):
            PiecewisePoly([0, 1, 1], [Poly([1]), Poly([1])])

    def test_continuity_is_asserted(self):
        with pytest.raises(ValueError, match="discontinuity at 1: 0 != 1"):
            PiecewisePoly([0, 1, 2], [Poly([0]), Poly([1])])
        jump = PiecewisePoly([0, 1, 2], [Poly([0]), Poly([1])], continuous=False)
        assert jump.eval(1) == 0  # breakpoints resolve to the left piece

    def test_eval_and_domain(self):
        pp = self.tent()
        assert pp.lo == 0 and pp.hi == 1
        assert pp("1/4") == F(1, 4)
        assert pp(F(3, 4)) == F(1, 4)
        assert pp(F(1, 2)) == F(1, 2)
        assert pp(0) == 0 and pp(1) == 0
        with pytest.raises(OutOfDomain):
            pp(F(-1, 10))
        with pytest.raises(OutOfDomain):
            pp(F(3, 2))

    def test_integration(self):
        pp = self.tent()
        assert pp.integrate(0, 1) == F(1, 4)
        assert pp.integrate("1/4", "3/4") == F(3, 16)
        assert pp.integrate(F(1, 2), F(1, 2)) == 0
        with pytest.raises(ValueError):
            pp.integrate(1, 0)
        with pytest.raises(OutOfDomain):
            pp.integrate(0, 2)

    def test_refine_preserves_values(self):
        pp = self.tent()
        fine = pp.refine([0, "1/4", "1/2", "7/8", 1])
        for v in (0, "1/8", "1/2", "9/16", 1):
            assert fine(v) == pp(v)
        with pytest.raises(ValueError):
            pp.refine([0, "1/4", 1])  # drops the original breakpoint 1/2

    def test_arithmetic_aligns_breakpoints(self):
        pp = self.tent()
        other = PiecewisePoly([0, "1/4", 1], [Poly([1]), Poly([1])])
        diff = pp - other
        assert diff.breakpoints == (F(0), F(1, 4), F(1, 2), F(1))
        assert diff("1/8") == F(-7, 8)
        assert diff("3/4") == F(-3, 4)
        assert (pp - pp).integrate(0, 1) == 0
        jump = PiecewisePoly([0, "1/4", 1], [Poly([0]), Poly([1])], continuous=False)
        assert not (pp - jump).continuous
        mismatched = PiecewisePoly([0, 2], [Poly([1])])
        with pytest.raises(ValueError):
            pp - mismatched

    def test_json_round_trip(self):
        pp = self.tent()
        data = {
            "breakpoints": ["0", "1/2", "1"],
            "pieces": [["0", "1"], ["1", "-1"]],
        }
        back = PiecewisePoly.from_json(data)
        assert back.breakpoints == pp.breakpoints
        assert back.pieces == pp.pieces

    def test_render(self):
        assert self.tent().render() == "v on [0, 1/2]; 1 - v on [1/2, 1]"
