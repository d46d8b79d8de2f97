"""Curve-configuration data model: curves, Gram matrix, points, validation.

A `SurfaceConfig` is the complete intersection-theoretic description of one
surface: named curves with self-intersections, the rational Gram matrix,
the expansion of the (pullback of the) anticanonical class in that curve
basis, per-curve log discrepancies, and the point classes used by the local
delta estimates. Orbifold surfaces are supported as data (fractional Gram
entries, nonzero differents); nothing is ever derived from equations.
"""
from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import DimensionMismatch, SchemaError
from .rationals import RatLike, format_rational, parse_rational

CURVE_KINDS = ("minus_one", "minus_two", "anticanonical_transform", "orbifold", "other")

# Kinds whose members are smooth rational curves on a smooth surface, so the
# adjunction identity (-K).C = C^2 + 2 applies.
_ADJUNCTION_KINDS = ("minus_one", "minus_two", "anticanonical_transform")


@dataclass(frozen=True)
class CurveRecord:
    """A named curve with its self-intersection and coarse type."""

    name: str
    self_int: Fraction
    kind: str

    def __init__(self, name: str, self_int: RatLike, kind: str):
        if kind not in CURVE_KINDS:
            raise SchemaError(f"unknown curve kind {kind!r} for {name}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "self_int", parse_rational(self_int))
        object.__setattr__(self, "kind", kind)


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
    curves: tuple[CurveRecord, ...]
    gram: tuple[tuple[Fraction, ...], ...]
    anti_k: tuple[Fraction, ...]
    discrepancy: Mapping[str, Fraction]
    smooth_surface: bool
    points: tuple[PointSpec, ...]
    curve_names: tuple[str, ...] = field(repr=False)
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
        curves: Sequence[CurveRecord],
        gram: Sequence[Sequence[RatLike]],
        anti_k: Sequence[RatLike],
        discrepancy: Mapping[str, RatLike] | None = None,
        smooth_surface: bool = True,
        points: Sequence[PointSpec] = (),
    ):
        curves = tuple(curves)
        n = len(curves)
        names = [c.name for c in curves]
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
        object.__setattr__(self, "curves", curves)
        object.__setattr__(self, "gram", tuple(tuple(map(parse, row)) for row in gram))
        object.__setattr__(self, "anti_k", tuple(map(parse, anti_k)))
        object.__setattr__(
            self,
            "discrepancy",
            {k: parse_rational(v) for k, v in (discrepancy or {}).items()},
        )
        object.__setattr__(self, "smooth_surface", bool(smooth_surface))
        object.__setattr__(self, "points", tuple(points))
        object.__setattr__(self, "curve_names", tuple(names))
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

    def index(self, curve: str) -> int:
        try:
            return self._index[curve]
        except KeyError:
            raise SchemaError(f"unknown curve {curve!r} in config {self.name}") from None

    def curve(self, name: str) -> CurveRecord:
        return self.curves[self.index(name)]

    def point(self, point_id: str) -> PointSpec:
        for p in self.points:
            if p.id == point_id:
                return p
        raise SchemaError(f"unknown point {point_id!r} in config {self.name}")

    def points_on(self, flag: str) -> tuple[PointSpec, ...]:
        return tuple(p for p in self.points if p.on_curve == flag)

    def basis_vector(self, curve: str) -> DivisorClass:
        i = self.index(curve)
        return DivisorClass(Fraction(int(j == i)) for j in range(len(self.curves)))

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
    n = len(config.curves)
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
    n = len(config.curves)

    # int_gram is mu * gram, so comparing integers gives the same verdict
    gram = config.int_gram
    bad_sym = [
        (config.curves[i].name, config.curves[j].name)
        for i in range(n)
        for j in range(i + 1, n)
        if gram[i][j] != gram[j][i]
    ]
    entries.append(
        ValidationEntry("gram symmetric", not bad_sym, f"asymmetric at {bad_sym}" if bad_sym else "")
    )

    bad_diag = [
        c.name for i, c in enumerate(config.curves) if config.gram[i][i] != c.self_int
    ]
    entries.append(
        ValidationEntry(
            "gram diagonal equals self-intersections",
            not bad_diag,
            f"mismatch at {bad_diag}" if bad_diag else "",
        )
    )

    bad_kind = [
        c.name
        for c in config.curves
        if (c.kind == "minus_one" and c.self_int != -1)
        or (c.kind == "minus_two" and c.self_int != -2)
    ]
    entries.append(
        ValidationEntry(
            "curve kinds match self-intersections",
            not bad_kind,
            f"mismatch at {bad_kind}" if bad_kind else "",
        )
    )

    sq = sum((a * d for a, d in zip(config.anti_k, config.anti_k_dots)), Fraction(0))
    entries.append(
        ValidationEntry(
            "anti_k norm",
            sq == config.norm,
            f"anti_k^2 = {format_rational(sq)}, expected {format_rational(config.norm)}",
        )
    )

    if config.smooth_surface:
        bad_adj = []
        for c, got in zip(config.curves, config.anti_k_dots):
            if c.kind not in _ADJUNCTION_KINDS:
                continue
            want = c.self_int + 2
            if got != want:
                bad_adj.append(f"{c.name}: {format_rational(got)} != {format_rational(want)}")
        entries.append(
            ValidationEntry(
                "adjunction (-K).C = C^2 + 2 on rational curves",
                not bad_adj,
                "; ".join(bad_adj),
            )
        )

    bad_disc = [k for k in config.discrepancy if k not in config._index]
    entries.append(
        ValidationEntry(
            "discrepancy keys are curves",
            not bad_disc,
            f"unknown {bad_disc}" if bad_disc else "",
        )
    )

    bad_points = []
    for p in config.points:
        if p.on_curve not in config._index:
            bad_points.append(f"{p.id}: unknown flag curve {p.on_curve}")
            continue
        fi = config.index(p.on_curve)
        if not 0 <= p.different < 1:
            bad_points.append(f"{p.id}: different {format_rational(p.different)} outside [0,1)")
        for name, mult in p.incidences.items():
            if name not in config._index:
                bad_points.append(f"{p.id}: unknown incident curve {name}")
            elif not (isinstance(mult, int) and mult > 0):
                bad_points.append(f"{p.id}: incidence with {name} must be a positive integer")
            elif mult > config.gram[config.index(name)][fi]:
                bad_points.append(
                    f"{p.id}: incidence {mult} with {name} exceeds the global "
                    f"intersection {format_rational(config.gram[config.index(name)][fi])}"
                )
    entries.append(
        ValidationEntry("point specs consistent", not bad_points, "; ".join(bad_points))
    )

    return ValidationReport(config.name, tuple(entries))


# -- JSON serialization ------------------------------------------------


def config_to_json(config: SurfaceConfig) -> dict:
    return {
        "name": config.name,
        "norm": format_rational(config.norm),
        "smooth_surface": config.smooth_surface,
        "curves": [
            {"name": c.name, "self_int": format_rational(c.self_int), "kind": c.kind}
            for c in config.curves
        ],
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


def config_from_json(data: dict, source: str = "<memory>") -> SurfaceConfig:
    try:
        curves = [
            CurveRecord(c["name"], c["self_int"], c["kind"]) for c in data["curves"]
        ]
        points = [
            PointSpec(
                p["id"],
                p["on_curve"],
                {k: int(v) for k, v in p.get("incidences", {}).items()},
                p.get("different", 0),
            )
            for p in data.get("points", [])
        ]
        return SurfaceConfig(
            name=data["name"],
            norm=data["norm"],
            curves=curves,
            gram=data["gram"],
            anti_k=data["anti_k"],
            discrepancy=data.get("discrepancy", {}),
            smooth_surface=data["smooth_surface"],
            points=points,
        )
    except SchemaError as exc:
        raise SchemaError(f"{source}: {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{source}: malformed config ({exc!r})") from exc


def save(config: SurfaceConfig, path: str | Path) -> None:
    Path(path).write_text(dumps_canonical(config_to_json(config)), encoding="utf-8")


def load(path: str | Path) -> SurfaceConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise SchemaError(f"{path}: no such file") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from None
    config = config_from_json(data, source=str(path))
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
