"""Blowing up a point of a configuration, tracked at the lattice level.

The blowup replaces each curve through the center by its strict transform
and adds the exceptional curve E. With m_C the multiplicity of curve C at
the center: E^2 = -1, (strict C)^2 = C^2 - m_C^2, strict intersections drop
by m_C * m_D, and E meets strict C in m_C points (counted with multiplicity).
The anticanonical data is transported by pullback, so the new anti_k column
gets the coefficient sum(a_C * m_C) on E and the old coefficients elsewhere.
E's log discrepancy is stored beside the others, so every curve satisfies
log adjunction against K = -anti_k + sum (A_D - 1) D, which
`config.validate` checks.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .config import PointSpec, SurfaceConfig
from .errors import InconsistentIncidence, NotSmooth
from .rationals import format_rational


@dataclass(frozen=True, eq=False)
class BlowupResult:
    """The blown-up configuration plus the exceptional curve's invariants."""

    config: SurfaceConfig
    e_p_name: str
    a_e_p: Fraction

    @property
    def pullback_coeff(self) -> Fraction:
        """Coefficient of the exceptional curve in the pulled-back anti_k."""
        return self.config.anti_k[self.config.index(self.e_p_name)]


def blowup(
    config: SurfaceConfig,
    point: PointSpec | str,
    e_p_name: str = "EP",
    name: str | None = None,
) -> BlowupResult:
    """Blow up one point class of a smooth-surface configuration.

    The center is `point.on_curve` together with `point.incidences`; each
    listed curve passes through the center with the given multiplicity and
    the flag curve itself with multiplicity 1. A point with empty on_curve
    is a generic point lying on no named curve.
    """
    if not config.smooth_surface:
        raise NotSmooth(f"cannot blow up the orbifold configuration {config.name}")
    if isinstance(point, str):
        point = config.point(point)
    if e_p_name in config.curve_names:
        raise InconsistentIncidence(
            f"name {e_p_name!r} already used by a curve of {config.name}"
        )

    mult: dict[str, int] = {}
    if point.on_curve:
        mult[point.on_curve] = 1
    for curve, m in point.incidences.items():
        config.index(curve)
        if type(m) is not int or m < 1:  # a bool is no multiplicity
            raise InconsistentIncidence(
                f"multiplicity of {curve} at {point.id} must be a positive integer"
            )
        if curve == point.on_curve:
            if m != 1:
                raise InconsistentIncidence(
                    f"flag curve {curve} must pass through {point.id} with multiplicity 1"
                )
            continue
        mult[curve] = m

    names = config.curve_names
    n = len(names)
    m_vec = [mult.get(c, 0) for c in names]
    # Distinct curves cannot meet at the center more often than they meet
    # globally; otherwise the stored incidences are contradictory.
    for i in range(n):
        for j in range(i + 1, n):
            if m_vec[i] and m_vec[j] and config.gram[i][j] < m_vec[i] * m_vec[j]:
                raise InconsistentIncidence(
                    f"curves {names[i]} and {names[j]} meet "
                    f"{format_rational(config.gram[i][j])} times globally but "
                    f"{m_vec[i] * m_vec[j]} times at {point.id}"
                )

    gram = [
        [config.gram[i][j] - m_vec[i] * m_vec[j] for j in range(n)] + [Fraction(m_vec[i])]
        for i in range(n)
    ]
    gram.append([Fraction(m) for m in m_vec] + [Fraction(-1)])

    e_coeff = sum(
        (config.anti_k[i] * m_vec[i] for i in range(n)), start=Fraction(0)
    )
    anti_k = list(config.anti_k) + [e_coeff]

    a_e_p = Fraction(2) + sum(
        (m_vec[i] * (config.discrepancy_of(names[i]) - 1) for i in range(n)),
        start=Fraction(0),
    )
    discrepancy = dict(config.discrepancy)
    discrepancy[e_p_name] = a_e_p

    new = SurfaceConfig(
        name=name or f"{config.name}^{point.id}",
        norm=config.norm,
        curve_names=names + (e_p_name,),
        gram=gram,
        anti_k=anti_k,
        discrepancy=discrepancy,
        smooth_surface=True,
        points=(),
    )
    return BlowupResult(config=new, e_p_name=e_p_name, a_e_p=a_e_p)
