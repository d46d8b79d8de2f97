"""Randomized algebraic invariants of the exact-arithmetic layer."""
from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from dpdelta import PiecewisePoly, PointSpec, Poly, SurfaceConfig, blowup
from dpdelta.delta import h_quadratic
from dpdelta.oracle import sample_parameters
from dpdelta.errors import IrrationalRoot
from dpdelta.rationals import format_rational, parse_rational
from dpdelta.zariski import _sign_after
from refpoly import RefPoly, ref

F = Fraction

small = st.fractions(min_value=F(-3), max_value=F(3), max_denominator=8)
positive = st.fractions(min_value=F(1, 8), max_value=F(3), max_denominator=8)
nonzero = small.filter(lambda f: f != 0)
polys = st.lists(small, max_size=3).map(Poly.from_fractions)
quadratics = st.lists(small, min_size=0, max_size=3).map(RefPoly)


class TestPolyAlgebra:
    @settings(max_examples=50, deadline=None)
    @given(p=polys)
    def test_string_round_trip(self, p):
        assert Poly.from_fractions([parse_rational(c) for c in p.to_strings()]) == p


def _int_quadratic(p: RefPoly) -> Poly:
    """p as integer numerators over the lcm of its denominators."""
    den = math.lcm(*(c.denominator for c in p.coeffs))
    return Poly(*(int(p.coeff(k) * den) for k in range(3)), den)


def _minimum_on(p: RefPoly, lo: Fraction, hi: Fraction) -> Fraction:
    """The least value of a quadratic on [lo, hi]: at an end or the vertex."""
    candidates = [p(lo), p(hi)]
    if p.coeff(2) != 0:
        vertex = -p.coeff(1) / (2 * p.coeff(2))
        if lo <= vertex <= hi:
            candidates.append(p(vertex))
    return min(candidates)


class TestRootFinding:
    @settings(max_examples=100, deadline=None)
    @given(a=nonzero, roots=st.tuples(small, small), lo=small)
    @example(a=F(1), roots=(F(1, 2), F(3, 2)), lo=F(0))
    def test_constructed_roots_are_recovered(self, a, roots, lo):
        r1, r2 = roots
        q = _int_quadratic(RefPoly([a * r1 * r2, -a * (r1 + r2), a]))
        after = [r for r in roots if r >= lo]
        assert q.first_root(lo) == (min(after) if after else None)

    @settings(max_examples=100, deadline=None)
    @given(a=nonzero, m=small, k=nonzero, lo=small)
    def test_irrational_roots_raise_only_at_or_after_lo(self, a, m, k, lo):
        # roots m -+ |k|*sqrt(2) are irrational, so never equal to lo
        q = _int_quadratic(RefPoly([a * (m * m - 2 * k * k), -2 * a * m, a]))
        if m + abs(k) * math.sqrt(2) > lo:
            with pytest.raises(IrrationalRoot):
                q.first_root(lo)
        else:
            assert q.first_root(lo) is None

    @settings(max_examples=100, deadline=None)
    @given(p=quadratics, ends=st.tuples(small, small))
    @example(p=RefPoly([2, -4, 2]), ends=(F(0), F(2)))  # touches 0 at its vertex
    @example(p=RefPoly([1, -3, 2]), ends=(F(0), F(2)))  # dips below 0 inside
    @example(p=RefPoly([1, -1, 1]), ends=(F(0), F(1)))  # vertex inside, above 0
    def test_positivity_matches_candidate_minimum(self, p, ends):
        lo, hi = sorted(ends)
        assert (_int_quadratic(p).sign_on(lo, hi) > 0) == (_minimum_on(p, lo, hi) > 0)

    @settings(max_examples=50, deadline=None)
    @given(p=quadratics, ends=st.tuples(small, small))
    def test_nonnegativity_matches_candidate_minimum(self, p, ends):
        lo, hi = sorted(ends)
        assert (_int_quadratic(p).sign_on(lo, hi) >= 0) == (_minimum_on(p, lo, hi) >= 0)


class TestPiecewise:
    @staticmethod
    def tent(mid, c0, s1, s2) -> tuple[Poly, Poly]:
        join = c0 + s1 * mid
        return (
            Poly.from_fractions([c0, s1, F(0)]),
            Poly.from_fractions([join - s2 * mid, s2, F(0)]),
        )

    @settings(max_examples=50, deadline=None)
    @given(
        mid=st.fractions(min_value=F(1, 8), max_value=F(7, 8), max_denominator=8),
        c0=small,
        s1=small,
        s2=small,
        split=st.fractions(min_value=F(0), max_value=F(1), max_denominator=16),
    )
    def test_split_integral_is_additive(self, mid, c0, s1, s2, split):
        first, second = self.tent(mid, c0, s1, s2)
        total = PiecewisePoly([0, mid, 1], [first, second]).integrate()
        grid = sorted({F(0), mid, split, F(1)})
        pieces = [first if hi <= mid else second for hi in grid[1:]]
        assert PiecewisePoly(grid, pieces).integrate() == total

    @settings(max_examples=100, deadline=None)
    @given(
        upper=st.lists(quadratics, min_size=1, max_size=3),
        lower=st.lists(quadratics, min_size=1, max_size=3),
        cuts=st.lists(
            st.fractions(min_value=F(1, 16), max_value=F(15, 16), max_denominator=16),
            min_size=4,
            max_size=4,
            unique=True,
        ),
    )
    @example(  # equal at both ends of [0, 1]; the difference v - v^2 decides at its vertex
        upper=[RefPoly()], lower=[RefPoly([0, -1, 1])], cuts=[F(1, 4), F(1, 2), F(3, 4), F(7, 8)]
    )
    def test_dominates_matches_the_candidate_minima(self, upper, lower, cuts):
        def piecewise(polys, inner):
            grid = [F(0), *sorted(inner), F(1)]
            return grid, PiecewisePoly(
                grid, [_int_quadratic(p) for p in polys], continuous=False
            )

        up_grid, up = piecewise(upper, cuts[: len(upper) - 1])
        low_grid, low = piecewise(lower, cuts[2 : len(lower) + 1])
        merged = sorted(set(up_grid) | set(low_grid))
        expected = True
        for lo, hi in zip(merged, merged[1:]):
            mid = (lo + hi) / 2
            above = next(p for p, end in zip(upper, up_grid[1:]) if mid < end)
            below = next(p for p, end in zip(lower, low_grid[1:]) if mid < end)
            expected = expected and _minimum_on(above - below, lo, hi) >= 0
        assert up.dominates(low) == expected


integers = st.integers(-10**6, 10**6)
denominators = st.integers(1, 10**4)
ends = st.fractions(min_value=-5, max_value=5, max_denominator=60)


class TestLowestTerms:
    @settings(max_examples=100, deadline=None)
    @given(a=st.tuples(integers, integers, integers), den=denominators, g=st.integers(1, 10**4))
    def test_a_quadratic_is_its_fields_in_lowest_terms(self, a, den, g):
        p = Poly(*a, den)
        scaled = Poly(*(g * x for x in a), g * den)
        assert scaled == p and hash(scaled) == hash(p)
        assert p.den > 0 and math.gcd(p.a0, p.a1, p.a2, p.den) == 1
        assert p.coeffs == RefPoly([F(x, den) for x in a]).coeffs
        assert Poly.from_fractions(p.coeffs) == p


class TestClosedFormIntegral:
    @settings(max_examples=150, deadline=None)
    @given(
        c=st.tuples(integers, integers, denominators),
        m=st.tuples(integers, integers, denominators),
        bounds=st.tuples(ends, ends).filter(lambda b: b[0] != b[1]),
    )
    def test_integer_h_matches_the_poly_product(self, c, m, bounds):
        (c0, c1, p_den), (m0, m1, n_den) = c, m
        lo, hi = sorted(bounds)
        p_dot = RefPoly([F(c0, p_den), F(c1, p_den)])
        n_dot = RefPoly([F(m0, n_den), F(m1, n_den)])
        h = p_dot * n_dot + p_dot * p_dot * F(1, 2)
        q = h_quadratic(c0, c1, p_den, m0, m1, n_den)
        assert ref(q) == h
        assert q.integrate(lo, hi) == h.integrate(lo, hi)

    @settings(max_examples=100, deadline=None)
    @given(
        left=st.tuples(integers, integers, integers, denominators),
        right=st.tuples(integers, integers, integers, denominators),
        points=st.lists(ends, min_size=3, max_size=3, unique=True),
        join=st.booleans(),
    )
    def test_pieces_match_a_continuous_piecewise_poly(self, left, right, points, join):
        lo, mid, hi = sorted(points)
        first, second = Poly(*left), Poly(*right)
        if join:
            # shift the second piece's constant term so both agree at mid
            gap = ref(first)(mid) - ref(second)(mid)
            den = second.den * gap.denominator
            scale = den // second.den
            second = Poly(
                second.a0 * scale + gap.numerator * second.den,
                second.a1 * scale,
                second.a2 * scale,
                den,
            )
        pieces = [ref(first), ref(second)]
        left, right = pieces[0](mid), pieces[1](mid)
        if left != right:
            message = (
                f"discontinuity at {format_rational(mid)}: "
                f"{format_rational(left)} != {format_rational(right)}"
            )
            with pytest.raises(ValueError) as caught:
                PiecewisePoly([lo, mid, hi], [first, second])
            assert str(caught.value) == message
        else:
            expected = pieces[0].integrate(lo, mid) + pieces[1].integrate(mid, hi)
            assert PiecewisePoly([lo, mid, hi], [first, second]).integrate() == expected


def _fraction_sign_after(c0: int, c1: int, v: Fraction) -> int:
    """Sign of c0 + c1*v just right of v: the value's sign, then the slope's."""
    for x in (c0 + c1 * v, F(c1)):
        if x != 0:
            return 1 if x > 0 else -1
    return 0


@st.composite
def affine_rows_and_points(draw):
    """An integer affine row and a point, half the time exactly at its root."""
    c0 = draw(st.integers(-50, 50))
    c1 = draw(st.integers(-50, 50))
    if c1 != 0 and draw(st.booleans()):
        v = F(-c0, c1)
    else:
        v = draw(st.fractions(min_value=-5, max_value=5, max_denominator=60))
    return c0, c1, v


class TestIntegerSigns:
    @settings(max_examples=300, deadline=None)
    @given(case=affine_rows_and_points())
    def test_sign_after_matches_the_fraction_rule(self, case):
        c0, c1, v = case
        expected = _fraction_sign_after(c0, c1, v)
        assert _sign_after(c0, c1, v.numerator, v.denominator) == expected


def _spellings(x: Fraction) -> list:
    """Ways a configuration may be handed the rational x, canonical or not."""
    p, q = x.numerator, x.denominator
    out = [x, f"{p}/{q}", f"{2 * p}/{2 * q}", f" {x} "]
    if q == 1:
        out.append(p)
    return out


rational_inputs = small.flatmap(lambda x: st.sampled_from(_spellings(x)))


@st.composite
def gram_and_anti_k(draw):
    """A square matrix and a vector of mixed int, Fraction and str entries."""
    n = draw(st.integers(1, 5))
    gram = [[draw(rational_inputs) for _ in range(n)] for _ in range(n)]
    return gram, [draw(rational_inputs) for _ in range(n)]


def _assert_integer_form(config: SurfaceConfig) -> None:
    gram, n, mu = config.gram, len(config.gram), config.mu
    entries = [x for row in gram for x in row]
    # mu is the least positive integer clearing every Gram denominator
    assert all((mu * x).denominator == 1 for x in entries)
    assert not any(all((d * x).denominator == 1 for x in entries) for d in range(1, mu))
    assert config.int_gram == tuple(tuple(mu * x for x in row) for row in gram)
    assert all(type(x) is int for row in config.int_gram for x in row)
    anti_k = config.anti_k
    dots = tuple(sum((a * gram[i][j] for i, a in enumerate(anti_k)), F(0)) for j in range(n))
    assert config.anti_k_dots == dots
    den = config.anti_k_dots_den
    assert den == math.lcm(*(x.denominator for x in dots))
    assert tuple(F(k, den) for k in config.int_anti_k_dots) == dots


class TestIntegerForm:
    @settings(max_examples=100, deadline=None)
    @given(data=gram_and_anti_k())
    def test_matches_the_fraction_gram(self, data):
        gram, anti_k = data
        config = SurfaceConfig(
            name="random",
            norm=1,
            curve_names=[f"C{i}" for i in range(len(gram))],
            gram=gram,
            anti_k=anti_k,
        )
        assert config.gram == tuple(tuple(parse_rational(x) for x in row) for row in gram)
        assert config.anti_k == tuple(parse_rational(x) for x in anti_k)
        _assert_integer_form(config)
        _assert_integer_form(config.with_points([PointSpec("p", "C0")]))
        _assert_integer_form(blowup(config, PointSpec("p", "C0")).config)


class TestSampling:
    @settings(max_examples=50, deadline=None)
    @given(tau=positive, seed=st.integers(min_value=0, max_value=50))
    def test_samples_are_bounded_exact_and_deterministic(self, tau, seed):
        vs = sample_parameters(tau, 10, seed)
        assert len(vs) == 10
        assert all(0 < v < tau for v in vs)
        assert all(v.denominator <= 10_000 for v in vs)
        assert vs == sample_parameters(tau, 10, seed)
