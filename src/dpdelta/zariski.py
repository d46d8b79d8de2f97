"""Parametric Zariski decompositions of anti_k - v*F, exactly over Q.

For a flag curve F the divisor D(v) = anti_k - v*F is decomposed as
D = P(v) + N(v) with P(v) nef, N(v) supported on a negative-definite set of
curves orthogonal to P(v). The support is locally constant in v, so the
decomposition is a finite list of chambers on which every negative-part
coefficient is an affine polynomial and P(v)^2 is a quadratic. The sweep
starts at v = 0 and pivots the support at each breakpoint until P^2 hits 0
at the pseudoeffective threshold tau.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .config import PointSpec, SurfaceConfig
from .errors import IrrationalRoot, NotPseudoEffective, OutOfDomain, SchemaError
from .linalg import solve
from .poly import PiecewisePoly, Poly, min_positive_root, nonnegative_on
from .rationals import RatLike, format_rational, parse_rational

_MAX_PIVOTS = 4096
_MAX_CHAMBERS = 64


@dataclass(frozen=True)
class NegativePart:
    """Support and coefficients of the negative part at a single divisor."""

    support: tuple[str, ...]
    coeffs: Mapping[str, Fraction]


@dataclass(frozen=True)
class Chamber:
    """One maximal interval [lo, hi] with constant negative-part support.

    `n_coeffs` holds the affine coefficient of each support curve,
    `p_sq` the quadratic P(v)^2, and `p_dot` the affine P(v).C for every
    curve C of the configuration.
    """

    lo: Fraction
    hi: Fraction
    support: tuple[str, ...]
    n_coeffs: Mapping[str, Poly]
    p_sq: Poly
    p_dot: Mapping[str, Poly]


@dataclass(frozen=True, eq=False)
class Decomposition:
    """All chambers of v -> Zariski(anti_k - v*flag) on [0, tau]."""

    config: SurfaceConfig
    flag: str
    chambers: tuple[Chamber, ...]
    tau: Fraction

    def chamber_at(self, v: RatLike) -> Chamber:
        v = parse_rational(v)
        if not 0 <= v <= self.tau:
            raise OutOfDomain(
                f"v = {format_rational(v)} outside [0, {format_rational(self.tau)}]"
            )
        for ch in self.chambers:
            if v <= ch.hi:
                return ch
        return self.chambers[-1]

    def negative_at(self, v: RatLike) -> NegativePart:
        v = parse_rational(v)
        ch = self.chamber_at(v)
        coeffs = {name: p(v) for name, p in ch.n_coeffs.items()}
        coeffs = {name: c for name, c in coeffs.items() if c != 0}
        return NegativePart(tuple(sorted(coeffs)), coeffs)

    def piecewise(self, piece: Callable[[Chamber], Poly]) -> PiecewisePoly:
        """One polynomial per chamber, joined on the chamber breakpoints."""
        bps = [self.chambers[0].lo] + [ch.hi for ch in self.chambers]
        return PiecewisePoly(bps, [piece(ch) for ch in self.chambers])

    def p_sq_piecewise(self) -> PiecewisePoly:
        return self.piecewise(lambda ch: ch.p_sq)

    def p_dot_flag_piecewise(self) -> PiecewisePoly:
        return self.piecewise(lambda ch: ch.p_dot[self.flag])


# -- parametric sweep ---------------------------------------------------


def parametric_decompose(config: SurfaceConfig, flag: str) -> Decomposition:
    """Chamber structure of v -> Zariski(anti_k - v*flag) for v in [0, tau].

    A NotPseudoEffective or IrrationalRoot raised by the sweep names the
    support involved, and leaves here also naming the configuration, the
    flag and the index of the chamber being built.
    """
    d_dot, d_sq = _directional_data(config, flag)

    chambers: list[Chamber] = []
    v_cur = Fraction(0)
    support: tuple[str, ...] = ()
    try:
        while len(chambers) < _MAX_CHAMBERS:
            support, n_polys, p_dot = _pivot(config, d_dot, support, v_cur)
            p_sq = _positive_part(d_dot, d_sq, n_polys)
            hi, is_tau = _chamber_end(n_polys, p_dot, p_sq, v_cur)
            chambers.append(
                Chamber(
                    lo=v_cur,
                    hi=hi,
                    support=support,
                    n_coeffs=n_polys,
                    p_sq=p_sq,
                    p_dot=p_dot,
                )
            )
            if is_tau:
                return Decomposition(config, flag, tuple(chambers), hi)
            v_cur = hi
        raise NotPseudoEffective(
            f"chamber sweep did not terminate after v = {format_rational(v_cur)}, "
            f"{_support_text(support)}"
        )
    except (NotPseudoEffective, IrrationalRoot) as exc:
        raise type(exc)(
            f"{exc}; config {config.name}, flag {flag}, chamber {len(chambers)}"
        ) from exc


def decomposition_for(
    config: SurfaceConfig, flag: str, decomp: Decomposition | None = None
) -> Decomposition:
    """`decomp` if it is the sweep of `flag` on `config`; a new sweep if None.

    A decomposition of another flag or another configuration raises
    ValueError naming both, instead of silently answering for them.
    """
    if decomp is None:
        return parametric_decompose(config, flag)
    if decomp.flag != flag:
        raise ValueError(
            f"decomposition of flag {decomp.flag} passed for flag {flag} "
            f"on config {config.name}"
        )
    if decomp.config is not config:
        raise ValueError(
            f"decomposition swept on config {decomp.config.name} passed for "
            f"another config {config.name}, flag {flag}"
        )
    return decomp


def _support_text(support: Sequence[str]) -> str:
    return f"support ({', '.join(support)})"


def _directional_data(config: SurfaceConfig, flag: str) -> tuple[dict[str, Poly], Poly]:
    """Affine D(v).C for every curve C and quadratic D(v)^2, D = anti_k - v*flag."""
    fi = config.index(flag)
    d_dot = {
        name: Poly([config.anti_k_dots[j], -config.gram[fi][j]])
        for j, name in enumerate(config.curve_names)
    }
    d_sq = Poly([config.norm, -2 * config.anti_k_dots[fi], config.gram[fi][fi]])
    return d_dot, d_sq


def _pivot(
    config: SurfaceConfig,
    d_dot: Mapping[str, Poly],
    seed: Sequence[str],
    v: Fraction,
) -> tuple[tuple[str, ...], dict[str, Poly], dict[str, Poly]]:
    """Find the valid support just right of v, starting from a seed guess.

    Validity is checked on the lexicographic pair (value at v, slope): a
    support coefficient must be positive immediately after v and a
    non-support curve must meet the residual nonnegatively immediately
    after v. Returns the support, its affine coefficients and the affine
    P.C of every curve C.
    """
    names = config.curve_names
    support = [name for name in names if name in set(seed)]
    seen: set[tuple[str, ...]] = set()
    for _ in range(_MAX_PIVOTS):
        key = tuple(support)
        if key in seen:
            raise NotPseudoEffective(
                f"support pivoting cycled at v = {format_rational(v)}, {_support_text(key)}"
            )
        seen.add(key)
        n_polys = _solve_support_affine(config, d_dot, support)
        if n_polys is None:
            raise NotPseudoEffective(
                f"singular Gram matrix at v = {format_rational(v)}, {_support_text(key)}"
            )
        drop = [name for name in support if _sign_after(n_polys[name], v) <= 0]
        p_dot = _residual_dots(config, d_dot, n_polys)
        add = [
            name for name in names if name not in set(support) and _sign_after(p_dot[name], v) < 0
        ]
        if not drop and not add:
            return key, n_polys, p_dot
        support = [name for name in support if name not in set(drop)]
        support += [name for name in names if name in set(add)]
        support = [name for name in names if name in set(support)]
    raise NotPseudoEffective(
        f"support pivoting did not converge at v = {format_rational(v)}, "
        f"{_support_text(support)}"
    )


def _sign_after(p: Poly, v: Fraction) -> int:
    """Sign of an affine polynomial immediately to the right of v."""
    value = p(v)
    if value != 0:
        return 1 if value > 0 else -1
    slope = p.derivative()(v)
    if slope != 0:
        return 1 if slope > 0 else -1
    return 0


def _gram(config: SurfaceConfig, a: str, b: str) -> Fraction:
    return config.gram[config.index(a)][config.index(b)]


def _solve_support_affine(
    config: SurfaceConfig, d_dot: Mapping[str, Poly], support: Sequence[str]
) -> dict[str, Poly] | None:
    if not support:
        return {}
    matrix = [[_gram(config, a, b) for b in support] for a in support]
    rhs = [
        [d_dot[a].coeff(0) for a in support],
        [d_dot[a].coeff(1) for a in support],
    ]
    try:
        sol = solve(matrix, rhs)
    except ValueError:
        return None
    return {name: Poly([sol[0][i], sol[1][i]]) for i, name in enumerate(support)}


def _residual_dots(
    config: SurfaceConfig, d_dot: Mapping[str, Poly], n_polys: Mapping[str, Poly]
) -> dict[str, Poly]:
    return {
        name: d_dot[name]
        - sum(
            (n_polys[s] * _gram(config, s, name) for s in n_polys),
            start=Poly([0]),
        )
        for name in config.curve_names
    }


def _positive_part(d_dot: Mapping[str, Poly], d_sq: Poly, n_polys: Mapping[str, Poly]) -> Poly:
    """P^2 on a chamber with negative part n_polys: D^2 - N.D, as P.N = 0."""
    return d_sq - sum((n * d_dot[name] for name, n in n_polys.items()), start=Poly([0]))


def _chamber_end(
    n_polys: Mapping[str, Poly],
    p_dot: Mapping[str, Poly],
    p_sq: Poly,
    lo: Fraction,
) -> tuple[Fraction, bool]:
    """Smallest v > lo at which the support changes or P^2 vanishes.

    Returns (hi, is_tau). Support-change candidates come from the sign flips
    of the chamber's affine rows (N_i on the support, P.C off it), which
    always happen at rational points; the pseudoeffective threshold itself
    must be rational or the sweep raises IrrationalRoot, except when a
    support change occurs first and protects the chamber.
    """
    rows = (n_polys[name] if name in n_polys else p_dot[name] for name in p_dot)
    roots = (-p.coeff(0) / p.coeff(1) for p in rows if p.coeff(1) < 0)
    affine_next = min((root for root in roots if root > lo), default=None)

    try:
        tau = min_positive_root(p_sq, lo)
    except IrrationalRoot as exc:
        if affine_next is not None and nonnegative_on(p_sq, lo, affine_next) and p_sq(
            affine_next
        ) > 0:
            return affine_next, False
        raise IrrationalRoot(f"{exc}, {_support_text(n_polys)}") from exc
    if tau is not None and tau == lo:
        raise NotPseudoEffective(
            f"P^2 already vanishes at v = {format_rational(lo)}, {_support_text(n_polys)}"
        )
    if tau is not None and (affine_next is None or tau <= affine_next):
        return tau, True
    if affine_next is None:
        raise NotPseudoEffective(
            f"no chamber end found after v = {format_rational(lo)}, {_support_text(n_polys)}"
        )
    return affine_next, False


def n_restricted_at_point(decomp: Decomposition, point: PointSpec | str) -> PiecewisePoly:
    """(N(v).F) localized at one point class, as a piecewise affine function."""
    if isinstance(point, str):
        point = decomp.config.point(point)
    return decomp.piecewise(
        lambda ch: sum(
            (ch.n_coeffs[name] * point.incidences.get(name, 0) for name in ch.support),
            start=Poly([0]),
        )
    )


# -- serialization -------------------------------------------------------


def decomposition_to_json(decomp: Decomposition) -> dict:
    """JSON-ready dict of the chamber structure, with rationals as strings.

    Polynomials are lists of ascending coefficients; `p_dot` is the row of
    the flag curve only, since every other row can be recomputed from the
    support coefficients.
    """
    return {
        "config": decomp.config.name,
        "flag": decomp.flag,
        "tau": format_rational(decomp.tau),
        "chambers": [
            {
                "lo": format_rational(ch.lo),
                "hi": format_rational(ch.hi),
                "support": list(ch.support),
                "n_coeffs": {name: ch.n_coeffs[name].to_strings() for name in ch.support},
                "p_sq": ch.p_sq.to_strings(),
                "p_dot": ch.p_dot[decomp.flag].to_strings(),
            }
            for ch in decomp.chambers
        ],
    }


def decomposition_from_json(config: SurfaceConfig, data: Mapping) -> Decomposition:
    """Rebuild a decomposition from its JSON form against a configuration.

    Only the support sets and their coefficients are trusted; every derived
    quantity is recomputed from the configuration and cross-checked against
    the stored `p_sq` and `p_dot` rows, so a stale or tampered file raises
    SchemaError instead of round-tripping silently.
    """
    flag = str(data["flag"])
    if flag not in config.curve_names:
        raise SchemaError(f"unknown flag curve {flag!r} on {config.name}")
    if "config" in data and data["config"] != config.name:
        raise SchemaError(
            f"decomposition belongs to {data['config']!r}, not {config.name!r}"
        )
    d_dot, d_sq = _directional_data(config, flag)
    chambers: list[Chamber] = []
    for raw in data["chambers"]:
        support = tuple(str(name) for name in raw["support"])
        unknown = [name for name in support if name not in config.curve_names]
        if unknown or set(raw["n_coeffs"]) != set(support):
            raise SchemaError(f"support/coefficient mismatch in chamber of {flag}")
        n_polys = {name: Poly.from_strings(raw["n_coeffs"][name]) for name in support}
        p_dot = _residual_dots(config, d_dot, n_polys)
        p_sq = _positive_part(d_dot, d_sq, n_polys)
        if p_sq != Poly.from_strings(raw["p_sq"]):
            raise SchemaError(
                f"stored P^2 disagrees with the recomputed one for flag {flag} "
                f"on [{raw['lo']}, {raw['hi']}]"
            )
        if p_dot[flag] != Poly.from_strings(raw["p_dot"]):
            raise SchemaError(
                f"stored P.{flag} disagrees with the recomputed one "
                f"on [{raw['lo']}, {raw['hi']}]"
            )
        chambers.append(
            Chamber(
                lo=parse_rational(raw["lo"]),
                hi=parse_rational(raw["hi"]),
                support=support,
                n_coeffs=n_polys,
                p_sq=p_sq,
                p_dot=p_dot,
            )
        )
    tau = parse_rational(data["tau"])
    if not chambers:
        raise SchemaError(f"no chambers stored for flag {flag}")
    if chambers[0].lo != 0 or chambers[-1].hi != tau:
        raise SchemaError(f"chambers of {flag} do not cover [0, tau]")
    for left, right in zip(chambers, chambers[1:]):
        if left.hi != right.lo:
            raise SchemaError(f"chambers of {flag} leave a gap at {left.hi}")
    if chambers[-1].p_sq(tau) != 0:
        raise SchemaError(f"P^2 does not vanish at the stored tau for flag {flag}")
    return Decomposition(config, flag, tuple(chambers), tau)

