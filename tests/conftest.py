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
    PiecewisePoly,
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
    """S(F), h and S(W;O) built from `Poly` products and antiderivatives.

    This is the path `delta` took before it integrated on the chambers'
    integer rows; the tests keep it as the reference the integer path must
    equal exactly.
    """

    @staticmethod
    def s_flag(decomp: Decomposition) -> Fraction:
        return decomp.p_sq_piecewise().integrate(0, decomp.tau) / decomp.config.norm

    @staticmethod
    def h(decomp: Decomposition, point: PointSpec) -> PiecewisePoly:
        p_dot = decomp.piecewise(lambda ch: ch.p_dot[decomp.flag])
        n_dot = decomp.piecewise(
            lambda ch: sum(
                (ch.n_coeffs[name] * point.incidences.get(name, 0) for name in ch.support),
                start=Poly([0]),
            )
        )
        return PiecewisePoly(
            p_dot.breakpoints,
            [p * n + p * p * Fraction(1, 2) for p, n in zip(p_dot.pieces, n_dot.pieces)],
        )

    @classmethod
    def s_w_point(cls, decomp: Decomposition, point: PointSpec) -> Fraction:
        h = cls.h(decomp, point)
        return 2 * h.integrate(0, decomp.tau) / decomp.config.norm


@pytest.fixture(scope="session")
def poly_reference() -> type[PolyReference]:
    """The `Poly`-product reference for S(F), h and S(W;O)."""
    return PolyReference
