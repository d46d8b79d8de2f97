"""Shared fixtures for the test suite.

The frozen catalog is loaded once per session and shared by every test
that reads it, so each case file is parsed and validated only once.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

import pytest

from dpdelta import (
    CaseRecord,
    Decomposition,
    PointSpec,
    SurfaceConfig,
    case_names,
    load_case,
)
from refpoly import RefPoly, ref


@pytest.fixture(scope="session")
def records() -> dict[str, CaseRecord]:
    """Every catalog case, loaded once."""
    return {name: load_case(name) for name in case_names()}


@pytest.fixture(scope="session")
def a1_nodal(records: dict[str, CaseRecord]) -> SurfaceConfig:
    """The two-curve configuration with a (-1)-curve meeting E twice."""
    return records["A1-nodal"].config("base")


@pytest.fixture(scope="session")
def a1_cuspidal(records: dict[str, CaseRecord]) -> SurfaceConfig:
    """The orbifold configuration (non-smooth surface, fractional Gram)."""
    return records["A1-cuspidal"].config("base")


@pytest.fixture(scope="session")
def a2_nodal(records: dict[str, CaseRecord]) -> CaseRecord:
    """A case with a base configuration, a blowup and a class bound."""
    return records["A2-nodal"]


def _intersect(config: SurfaceConfig, d1: Sequence[Fraction], d2: Sequence[Fraction]) -> Fraction:
    """d1.d2 under the Gram bilinear form, for divisors written in curve order."""
    rows = zip(d1, config.gram, strict=True)
    return sum((a * x * b for a, row in rows for x, b in zip(row, d2, strict=True)), Fraction(0))


@pytest.fixture(scope="session")
def intersect() -> Callable[[SurfaceConfig, Sequence[Fraction], Sequence[Fraction]], Fraction]:
    """The Fraction Gram bilinear form, the reference for (-K).C rows and pullbacks."""
    return _intersect


class PolyReference:
    """S(F), h and S(W;O) from reference polynomial products and integrals.

    This is the path `delta` took before it integrated on the chambers'
    integer rows; the tests keep it as the reference the integer path must
    equal exactly. It reads only the coefficients of the chambers' `Poly`s
    (P^2, N and the flag's P.F), computes on them as `RefPoly`, and keeps
    one polynomial per chamber, in chamber order.
    """

    @staticmethod
    def s_flag(decomp: Decomposition) -> Fraction:
        total = sum((ref(ch.p_sq).integrate(ch.lo, ch.hi) for ch in decomp.chambers), Fraction(0))
        return total / decomp.config.norm

    @staticmethod
    def h(decomp: Decomposition, point: PointSpec) -> list[RefPoly]:
        pieces = []
        for ch in decomp.chambers:
            p_dot = ref(ch.p_dot_at(decomp.config.index(decomp.flag)))
            n_dot = sum(
                (ref(ch.n_coeffs[name]) * point.incidences.get(name, 0) for name in ch.support),
                start=RefPoly(),
            )
            pieces.append(p_dot * n_dot + p_dot * p_dot * Fraction(1, 2))
        return pieces

    @classmethod
    def s_w_point(cls, decomp: Decomposition, point: PointSpec) -> Fraction:
        pieces = zip(cls.h(decomp, point), decomp.chambers)
        total = sum((h.integrate(ch.lo, ch.hi) for h, ch in pieces), Fraction(0))
        return 2 * total / decomp.config.norm


@pytest.fixture(scope="session")
def poly_reference() -> type[PolyReference]:
    """The reference-polynomial path for S(F), h and S(W;O)."""
    return PolyReference
