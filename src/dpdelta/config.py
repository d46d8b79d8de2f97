"""Curve-configuration data model: curves, Gram matrix, points, validation.

A `SurfaceConfig` is the complete intersection-theoretic description of one
surface: named curves, the rational Gram matrix (whose diagonal holds the
self-intersections), the expansion of the (pullback of the) anticanonical
class in that curve basis, per-curve log discrepancies, and the point
classes used by the local delta estimates. Orbifold surfaces are supported
as data (fractional Gram entries, nonzero differents); nothing is ever
derived from equations.
"""
from __future__ import annotations

import copy
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import DimensionMismatch, SchemaError
from .rationals import RatLike, format_rational, parse_rational, read_field, read_json, typed

@dataclass(frozen=True)
class PointSpec:
    """A point class on a flag curve.

    `incidences` maps other curve names to the local intersection
    multiplicity with the flag curve at this point; `different` is the
    coefficient of the point in the different divisor (zero on smooth
    surfaces), so the local log discrepancy is 1 - different.
    """

    id: str
    on_curve: str
    incidences: Mapping[str, int]
    different: Fraction

    def __init__(
        self,
        id: str,
        on_curve: str,
        incidences: Mapping[str, int] | None = None,
        different: RatLike = 0,
    ):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "on_curve", on_curve)
        object.__setattr__(self, "incidences", dict(incidences or {}))
        object.__setattr__(self, "different", parse_rational(different))


@dataclass(frozen=True)
class DivisorClass:
    """A divisor class written in a config's curve basis."""

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[RatLike]):
        object.__setattr__(self, "coeffs", tuple(parse_rational(c) for c in coeffs))

    def __len__(self) -> int:
        return len(self.coeffs)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if len(self) != len(other):
            raise DimensionMismatch("divisor lengths differ")
        return DivisorClass(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        if len(self) != len(other):
            raise DimensionMismatch("divisor lengths differ")
        return DivisorClass(a - b for a, b in zip(self.coeffs, other.coeffs))

    def scale(self, factor: RatLike) -> "DivisorClass":
        f = parse_rational(factor)
        return DivisorClass(f * c for c in self.coeffs)


@dataclass(frozen=True, eq=False)
class SurfaceConfig:
    """Immutable description of one curve configuration.

    Besides the rational data it owns the integer form every exact
    elimination runs on: `int_gram` is mu * gram with `mu` the lcm of the
    Gram denominators, and `anti_k_dots[j]` is
    `int_anti_k_dots[j] / anti_k_dots_den` over the least such denominator.
    """

    name: str
    norm: Fraction
    curve_names: tuple[str, ...]
    gram: tuple[tuple[Fraction, ...], ...]
    anti_k: tuple[Fraction, ...]
    discrepancy: Mapping[str, Fraction]
    smooth_surface: bool
    points: tuple[PointSpec, ...]
    _index: dict = field(repr=False)
    anti_k_dots: tuple[Fraction, ...] = field(repr=False)
    mu: int = field(repr=False)
    int_gram: tuple[tuple[int, ...], ...] = field(repr=False)
    int_anti_k_dots: tuple[int, ...] = field(repr=False)
    anti_k_dots_den: int = field(repr=False)

    def __init__(
        self,
        name: str,
        norm: RatLike,
        curve_names: Sequence[str],
        gram: Sequence[Sequence[RatLike]],
        anti_k: Sequence[RatLike],
        discrepancy: Mapping[str, RatLike] | None = None,
        smooth_surface: bool = True,
        points: Sequence[PointSpec] = (),
    ):
        names = tuple(curve_names)
        n = len(names)
        if len(set(names)) != n:
            raise SchemaError(f"duplicate curve names in {name}")
        if len(gram) != n or any(len(row) != n for row in gram):
            raise SchemaError(f"gram must be {n}x{n} in {name}")
        if len(anti_k) != n:
            raise SchemaError(f"anti_k must have {n} entries in {name}")
        parsed: dict[str, Fraction] = {}

        def parse(x: RatLike) -> Fraction:
            # Gram entries repeat (a wide configuration has a handful of
            # distinct strings), so each distinct string is parsed once.
            if type(x) is not str:
                return parse_rational(x)
            f = parsed.get(x)
            if f is None:
                f = parsed[x] = parse_rational(x)
            return f

        object.__setattr__(self, "name", name)
        object.__setattr__(self, "norm", parse_rational(norm))
        object.__setattr__(self, "gram", tuple(tuple(map(parse, row)) for row in gram))
        object.__setattr__(self, "anti_k", tuple(map(parse, anti_k)))
        object.__setattr__(
            self,
            "discrepancy",
            {k: parse_rational(v) for k, v in (discrepancy or {}).items()},
        )
        object.__setattr__(self, "smooth_surface", bool(smooth_surface))
        object.__setattr__(self, "points", tuple(points))
        object.__setattr__(self, "curve_names", names)
        object.__setattr__(self, "_index", {nm: i for i, nm in enumerate(names)})
        # Equal parsed strings share one Fraction, so mu and each integer
        # entry are taken once per distinct object and then looked up by id.
        distinct: dict[int, Fraction] = {}
        for row in self.gram:
            distinct.update(zip(map(id, row), row))
        mu = math.lcm(*{x.denominator for x in distinct.values()})
        as_int = {i: x.numerator * (mu // x.denominator) for i, x in distinct.items()}
        int_gram = tuple(tuple(map(as_int.__getitem__, map(id, row))) for row in self.gram)
        # With alpha * anti_k = a integral, k_j = sum_i a_i * int_gram[i][j]
        # is mu * alpha * (-K).C_j; anti_k is sparse on wide configurations.
        alpha = math.lcm(*(a.denominator for a in self.anti_k))
        k = [0] * n
        for c, row in zip(self.anti_k, int_gram):
            if c:
                a = c.numerator * (alpha // c.denominator)
                k = [kj + a * x for kj, x in zip(k, row)]
        g = math.gcd(mu * alpha, *k)
        den = mu * alpha // g
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "int_gram", int_gram)
        object.__setattr__(self, "int_anti_k_dots", tuple(kj // g for kj in k))
        object.__setattr__(self, "anti_k_dots_den", den)
        object.__setattr__(
            self, "anti_k_dots", tuple(Fraction(kj, den) for kj in self.int_anti_k_dots)
        )

    # -- basis helpers -------------------------------------------------

    @property
    def curves(self) -> tuple[str, ...]:
        """`curve_names` under its older name, kept while bench/instrument.py reads it."""
        return self.curve_names

    def index(self, curve: str) -> int:
        try:
            return self._index[curve]
        except KeyError:
            raise SchemaError(f"unknown curve {curve!r} in config {self.name}") from None

    def point(self, point_id: str) -> PointSpec:
        for p in self.points:
            if p.id == point_id:
                return p
        raise SchemaError(f"unknown point {point_id!r} in config {self.name}")

    def points_on(self, flag: str) -> tuple[PointSpec, ...]:
        return tuple(p for p in self.points if p.on_curve == flag)

    def basis_vector(self, curve: str) -> DivisorClass:
        i = self.index(curve)
        return DivisorClass(Fraction(int(j == i)) for j in range(len(self.curve_names)))

    @property
    def anti_k_divisor(self) -> DivisorClass:
        return DivisorClass(self.anti_k)

    def discrepancy_of(self, curve: str) -> Fraction:
        """Stored log discrepancy; defaults to 1 (crepant or on-surface curve)."""
        self.index(curve)
        return self.discrepancy.get(curve, Fraction(1))

    def with_points(self, points: Sequence[PointSpec]) -> "SurfaceConfig":
        """A new configuration with these points that shares everything else,
        the parsed Gram matrix and its integer form included."""
        config = copy.copy(self)
        object.__setattr__(config, "points", tuple(points))
        return config


def intersect(config: SurfaceConfig, d1: DivisorClass, d2: DivisorClass) -> Fraction:
    """Intersection number of two divisor classes (Gram bilinear form)."""
    n = len(config.curve_names)
    if len(d1) != n or len(d2) != n:
        raise DimensionMismatch(
            f"expected vectors of length {n}, got {len(d1)} and {len(d2)}"
        )
    total = Fraction(0)
    for i, a in enumerate(d1.coeffs):
        if a == 0:
            continue
        row = config.gram[i]
        total += a * sum(row[j] * b for j, b in enumerate(d2.coeffs) if b != 0)
    return total


# -- validation --------------------------------------------------------


@dataclass(frozen=True)
class ValidationEntry:
    rule: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    config_name: str
    entries: tuple[ValidationEntry, ...]

    @property
    def ok(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def failures(self) -> tuple[ValidationEntry, ...]:
        return tuple(e for e in self.entries if not e.passed)

    def render(self) -> str:
        lines = [f"validation of {self.config_name}:"]
        for e in self.entries:
            status = "ok" if e.passed else "FAIL"
            detail = f" ({e.detail})" if e.detail else ""
            lines.append(f"  [{status}] {e.rule}{detail}")
        return "\n".join(lines)


def validate(config: SurfaceConfig) -> ValidationReport:
    """Check every structural invariant; failures become report entries."""
    entries: list[ValidationEntry] = []

    def rule(name: str, offenders: list, detail: str) -> None:
        entries.append(ValidationEntry(name, not offenders, detail if offenders else ""))

    names, fr = config.curve_names, format_rational
    # int_gram is mu * gram, so comparing integers gives the same verdict
    gram = config.int_gram
    # one scan of the pairs i < j serves both pairwise rules
    odd = [
        (c, names[j], row[j], gram[j][i])
        for i, (c, row) in enumerate(zip(names, gram))
        for j in range(i + 1, len(names))
        if row[j] != gram[j][i] or row[j] < 0
    ]
    bad = [(a, b) for a, b, x, y in odd if x != y]
    rule("gram symmetric", bad, f"asymmetric at {bad}")
    bad = [(a, b) for a, b, x, y in odd if min(x, y) < 0]
    rule("distinct curves meet nonnegatively", bad, f"negative at {bad}")

    sq = sum((a * d for a, d in zip(config.anti_k, config.anti_k_dots)), Fraction(0))
    detail = f"anti_k^2 = {fr(sq)}, expected {fr(config.norm)}"
    entries.append(ValidationEntry("anti_k norm", sq == config.norm, detail))

    # Log adjunction on each curve C, a smooth rational curve: (K + C).C is
    # -2 plus the degree of the different, the sum over C's stored points,
    # with K = -anti_k + sum (A_D - 1) D over the stored log discrepancies
    # (Kollar, Singularities of the Minimal Model Program, 2013, ch. 4).
    diff = dict.fromkeys(names, Fraction(0))
    for p in config.points:
        if p.on_curve in diff:
            diff[p.on_curve] += p.different
    log = [
        (config._index[d], a - 1)
        for d, a in config.discrepancy.items()
        if d in config._index and a != 1  # an unknown key fails its own rule
    ]
    bad = []
    for j, (c, row) in enumerate(zip(names, config.gram)):
        got = row[j] - config.anti_k_dots[j] + sum(w * config.gram[i][j] for i, w in log)
        if got != diff[c] - 2:
            bad.append(f"{c}: {fr(got)} != -2 + {fr(diff[c])}")
    rule("log adjunction (K + C).C = -2 + deg Diff_C", bad, "; ".join(bad))
    bad = []
    if config.smooth_surface:
        if config.mu != 1:
            bad = [
                f"{c}.{names[j]} = {fr(x)}"
                for i, (c, row) in enumerate(zip(names, config.gram))
                for j, x in enumerate(row[i:], i)
                if x.denominator != 1
            ]
        bad += [f"{p.id}: different {fr(p.different)}" for p in config.points if p.different]
    rule("smooth surface has integral intersections and no differents", bad, "; ".join(bad))

    bad = [k for k in config.discrepancy if k not in config._index]
    rule("discrepancy keys are curves", bad, f"unknown {bad}")

    ids = Counter(p.id for p in config.points)
    bad = [f"duplicate point id {i}" for i, k in ids.items() if k > 1]
    for p in config.points:
        if p.on_curve not in config._index:
            bad.append(f"{p.id}: unknown flag curve {p.on_curve}")
            continue
        fi = config.index(p.on_curve)
        if not 0 <= p.different < 1:
            bad.append(f"{p.id}: different {fr(p.different)} outside [0,1)")
        for name, mult in p.incidences.items():
            if name not in config._index:
                bad.append(f"{p.id}: unknown incident curve {name}")
            elif type(mult) is not int or mult <= 0:  # a bool is no multiplicity
                bad.append(f"{p.id}: incidence with {name} must be a positive integer")
            elif mult > (meet := config.gram[config.index(name)][fi]):
                bad.append(
                    f"{p.id}: incidence {mult} with {name} exceeds the global "
                    f"intersection {fr(meet)}"
                )
    rule("point specs consistent", bad, "; ".join(bad))

    return ValidationReport(config.name, tuple(entries))


# -- JSON serialization ------------------------------------------------


def config_to_json(config: SurfaceConfig) -> dict:
    return {
        "name": config.name,
        "norm": format_rational(config.norm),
        "smooth_surface": config.smooth_surface,
        "curves": [{"name": c} for c in config.curve_names],
        "gram": [[format_rational(x) for x in row] for row in config.gram],
        "anti_k": [format_rational(x) for x in config.anti_k],
        "discrepancy": {k: format_rational(v) for k, v in sorted(config.discrepancy.items())},
        "points": [
            {
                "id": p.id,
                "on_curve": p.on_curve,
                "incidences": {k: v for k, v in sorted(p.incidences.items())},
                "different": format_rational(p.different),
            }
            for p in config.points
        ],
    }


def config_from_json(data: object, source: str = "<memory>") -> SurfaceConfig:
    """Read a configuration from its JSON form; every SchemaError names `source`.

    Gram and anti_k entries, 10^5 on a wide configuration, are left to the
    constructor's memoized parse."""
    at = f"{source}: "
    data = typed(data, dict, source)
    curves = [
        read_field(c, "name", str, f"{at}curves[{i}].")
        for i, c in enumerate(read_field(data, "curves", list[dict], at))
    ]
    points = []
    for i, p in enumerate(read_field(data, "points", list[dict], at, [])):
        where = f"{at}points[{i}]."
        point_id, on_curve = (read_field(p, key, str, where) for key in ("id", "on_curve"))
        incidences = read_field(p, "incidences", dict[str, int], where, {})
        different = read_field(p, "different", Fraction, where, 0)
        points.append(PointSpec(point_id, on_curve, incidences, different))
    name = read_field(data, "name", str, at)
    norm = read_field(data, "norm", Fraction, at)
    gram = read_field(data, "gram", list[list], at)
    anti_k = read_field(data, "anti_k", list, at)
    discrepancy = read_field(data, "discrepancy", dict[str, Fraction], at, {})
    smooth_surface = read_field(data, "smooth_surface", bool, at)
    try:
        return SurfaceConfig(name, norm, curves, gram, anti_k, discrepancy, smooth_surface, points)
    except SchemaError as exc:
        # a Gram or anti_k entry that is no rational, named by its path
        typed(gram, list[list[Fraction]], f"{at}gram")
        typed(anti_k, list[Fraction], f"{at}anti_k")
        raise SchemaError(f"{at}{exc}") from None


def save(config: SurfaceConfig, path: str | Path) -> None:
    Path(path).write_text(dumps_canonical(config_to_json(config)), encoding="utf-8")


def load(path: str | Path) -> SurfaceConfig:
    config = config_from_json(read_json(path), source=str(path))
    report = validate(config)
    if not report.ok:
        raise SchemaError(
            f"{path}: invalid config: "
            + "; ".join(f"{e.rule}: {e.detail}" for e in report.failures)
        )
    return config


def dumps_canonical(data: dict) -> str:
    """Canonical JSON bytes so that save/load round-trips are byte-identical."""
    return json.dumps(data, indent=2, sort_keys=False) + "\n"
