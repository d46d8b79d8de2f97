"""Shared fixtures for the test suite.

The frozen catalog is loaded once per session: the per-config caches
(negative-definite subsets, oracle tables) key on object identity, so
sharing the loaded records keeps the oracle-heavy tests fast.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable

import pytest

from dpdelta import (
    CaseRecord,
    Decomposition,
    PointSpec,
    Poly,
    SurfaceConfig,
    case_names,
    load_case,
)


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


def _same_decomposition(a: Decomposition, b: Decomposition) -> bool:
    """Structural equality: same config, flag, tau and chamber data.

    Every chamber field is compared, including the `p_dot` row of every
    curve, which `decomposition_to_json` stores only for the flag.
    """
    if a.config.name != b.config.name or a.flag != b.flag or a.tau != b.tau:
        return False
    if len(a.chambers) != len(b.chambers):
        return False
    for ca, cb in zip(a.chambers, b.chambers):
        if (ca.lo, ca.hi, ca.support) != (cb.lo, cb.hi, cb.support):
            return False
        if dict(ca.n_coeffs) != dict(cb.n_coeffs) or ca.p_sq != cb.p_sq:
            return False
        if dict(ca.p_dot) != dict(cb.p_dot):
            return False
    return True


@pytest.fixture(scope="session")
def same_decomposition() -> Callable[[Decomposition, Decomposition], bool]:
    """Structural equality of two decompositions."""
    return _same_decomposition


class PolyReference:
    """S(F), h and S(W;O) from `Poly` products and `Poly.integrate` alone.

    This is the path `delta` took before it integrated on the chambers'
    integer rows; the tests keep it as the reference the integer path must
    equal exactly. It reads only the chambers' `Poly` views and keeps one
    polynomial per chamber, in chamber order.
    """

    @staticmethod
    def s_flag(decomp: Decomposition) -> Fraction:
        total = sum((ch.p_sq.integrate(ch.lo, ch.hi) for ch in decomp.chambers), Fraction(0))
        return total / decomp.config.norm

    @staticmethod
    def h(decomp: Decomposition, point: PointSpec) -> list[Poly]:
        pieces = []
        for ch in decomp.chambers:
            p_dot = ch.p_dot[decomp.flag]
            n_dot = sum(
                (ch.n_coeffs[name] * point.incidences.get(name, 0) for name in ch.support),
                start=Poly([0]),
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
    """The `Poly`-product reference for S(F), h and S(W;O)."""
    return PolyReference
