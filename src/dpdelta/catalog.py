"""Frozen regression catalog: configurations plus expected exact values.

Each case directory holds one or more surface configurations
(``config_<id>.json``) together with an ``expected.json`` recording the
values the engine must reproduce: the Fujita invariant of every designated
flag, the local bounds at the stored point classes, chamber structures for
selected flags, blowup bookkeeping, class-level envelopes and the certified
global minimum. ``verify_case`` recomputes everything from scratch and
reports one pass/fail row per stored fact.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Mapping

from .blowup import blowup
from .config import SurfaceConfig, config_to_json, load
from .delta import FlagReport, certify_minimum, flag_report, local_h
from .errors import NotCertified, SchemaError
from .poly import PiecewisePoly, Poly, render_coeffs
from .rationals import format_rational, read_field, read_json, typed
from .zariski import Decomposition, decomposition_to_json, parametric_decompose

@dataclass(frozen=True)
class BlowupSpec:
    """A stored configuration that must equal the blowup of another one."""

    result: str
    source: str
    point: str
    e_p_name: str
    name: str
    a_e_p: Fraction
    pullback_coeff: Fraction


@dataclass(frozen=True)
class PointExpectation:
    """Expected local bound S(W;O) at one stored point class."""

    id: str
    s_w: Fraction
    relation: str = "="


@dataclass(frozen=True)
class FlagSpec:
    """Expected data of one designated flag on one configuration."""

    config_id: str
    flag: str
    s: Fraction
    points: tuple[PointExpectation, ...]
    # the stored string "tau" and chamber "list", as `decomposition_to_json`
    # writes them
    chambers: Mapping | None = None


@dataclass(frozen=True)
class ClassBound:
    """A single envelope bounding S(W;O) for a whole class of points."""

    config_id: str
    flag: str
    value: Fraction
    envelope: PiecewisePoly
    covers: tuple[str, ...]


@dataclass(frozen=True)
class CaseRecord:
    """One catalog case: configurations plus all expected values."""

    name: str
    path: Path
    configs: Mapping[str, SurfaceConfig]
    blowups: tuple[BlowupSpec, ...]
    flag_specs: tuple[FlagSpec, ...]
    class_bounds: tuple[ClassBound, ...]
    delta: Fraction

    def config(self, config_id: str) -> SurfaceConfig:
        try:
            return self.configs[config_id]
        except KeyError:
            raise SchemaError(f"case {self.name} has no configuration {config_id!r}")


@dataclass(frozen=True)
class CheckRow:
    """One recomputed fact compared against its stored expectation."""

    label: str
    expected: str
    actual: str
    passed: bool

    def render(self) -> str:
        if self.passed:
            return f"{self.label} OK"
        return f"{self.label} FAIL (expected {self.expected}, got {self.actual})"


@dataclass(frozen=True)
class CaseReport:
    case: str
    rows: tuple[CheckRow, ...]

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def render(self) -> str:
        body = "; ".join(row.render() for row in self.rows)
        return f"{self.case}: {body}"


def catalog_root() -> Path:
    """Directory of the shipped catalog, overridable via DPDELTA_CATALOG."""
    override = os.environ.get("DPDELTA_CATALOG")
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / "catalog"


def case_names(root: Path | str | None = None) -> tuple[str, ...]:
    base = Path(root) if root is not None else catalog_root()
    if not base.is_dir():
        raise SchemaError(f"catalog directory {base} does not exist")
    names = sorted(p.name for p in base.iterdir() if (p / "expected.json").is_file())
    if not names:
        raise SchemaError(f"catalog directory {base} holds no cases")
    return tuple(names)


def load_case(name: str, root: Path | str | None = None) -> CaseRecord:
    """Read one case; every SchemaError names expected.json and the field path,
    and also the configuration file when a stored fact does not match it."""
    base = Path(root) if root is not None else catalog_root()
    path = base / name
    expected = path / "expected.json"
    if not expected.is_file():
        raise SchemaError(f"no case named {name!r} under {base}")
    data = typed(read_json(expected), dict, str(expected))
    at = f"{expected}: "
    if (case := read_field(data, "case", str, at)) != name:
        raise SchemaError(f"{expected} names case {case!r}, not {name!r}")

    configs: dict[str, SurfaceConfig] = {}
    files: dict[str, Path] = {}

    def check_point(cid: str, point_id: str, flag: str | None, where: str) -> None:
        """A stored point must exist, and lie on the flag it is stored under."""
        on_curve = next((p.on_curve for p in configs[cid].points if p.id == point_id), None)
        if on_curve is None:
            raise SchemaError(
                f"{where}: unknown point {point_id!r} in configuration {cid!r} ({files[cid]})"
            )
        if flag is not None and on_curve != flag:
            raise SchemaError(
                f"{where}: point {point_id!r} of configuration {cid!r} in case {name} "
                f"lies on {on_curve}, not on flag {flag!r} ({files[cid]})"
            )

    def config_and_flag(raw: dict, where: str) -> tuple[str, str]:
        """The row's configuration id and flag curve, both checked to exist."""
        cid = read_field(raw, "config", str, where)
        if cid not in configs:
            raise SchemaError(f"{where}config: unknown configuration {cid!r}")
        flag = read_field(raw, "flag", str, where)
        if flag not in configs[cid].curve_names:
            raise SchemaError(
                f"{where}flag: configuration {cid!r} ({files[cid]}) has no curve {flag!r}"
            )
        return cid, flag

    blowups: list[BlowupSpec] = []
    for i, entry in enumerate(read_field(data, "configs", list[dict], at, [])):
        where = f"{at}configs[{i}]."
        cid = read_field(entry, "id", str, where)
        if cid in configs:
            raise SchemaError(f"{where}id: duplicate configuration id {cid!r}")
        files[cid] = path / read_field(entry, "file", str, where)
        if not files[cid].is_file():
            raise SchemaError(f"{where}file: no such file {files[cid]}")
        raw = read_field(entry, "blowup", dict, where, None)
        if raw is not None:
            where += "blowup."
            source = read_field(raw, "from", str, where)
            if source not in configs:
                raise SchemaError(f"{where}from: no earlier configuration {source!r}")
            point = read_field(raw, "point", str, where)
            check_point(source, point, None, f"{where}point")
            rest = [read_field(raw, key, str, where) for key in ("e_p_name", "name")]
            rest += [read_field(raw, key, Fraction, where) for key in ("a_e_p", "pullback_coeff")]
            blowups.append(BlowupSpec(cid, source, point, *rest))
        configs[cid] = load(files[cid])
    if not configs:
        raise SchemaError(f"{at}case {name} stores no configurations")

    flag_specs: list[FlagSpec] = []
    for i, raw in enumerate(read_field(data, "flags", list[dict], at, [])):
        where = f"{at}flags[{i}]."
        cid, flag = config_and_flag(raw, where)
        points = []
        for j, p in enumerate(read_field(raw, "points", list[dict], where, [])):
            at_p = f"{where}points[{j}]."
            point_id = read_field(p, "id", str, at_p)
            relation = read_field(p, "relation", str, at_p, "=")
            if relation not in ("=", "<="):
                raise SchemaError(f"{at_p}relation: unknown relation {relation!r}")
            check_point(cid, point_id, flag, f"{at_p}id")
            s_w = read_field(p, "s_w", Fraction, at_p)
            points.append(PointExpectation(point_id, s_w, relation))
        stored = read_field(raw, "chambers", dict, where, None)
        if stored is not None:
            kinds = {"tau": str, "list": list}
            stored = {k: read_field(stored, k, t, f"{where}chambers.") for k, t in kinds.items()}
        s = read_field(raw, "s", Fraction, where)
        flag_specs.append(FlagSpec(cid, flag, s, tuple(points), stored))
    if not flag_specs:
        raise SchemaError(f"{at}case {name} stores no flag rows")

    class_bounds: list[ClassBound] = []
    for i, raw in enumerate(read_field(data, "class_bounds", list[dict], at, [])):
        where = f"{at}class_bounds[{i}]."
        cid, flag = config_and_flag(raw, where)
        covers = read_field(raw, "covers", list[str], where, [])
        for j, point_id in enumerate(covers):
            check_point(cid, point_id, flag, f"{where}covers[{j}]")
        value = read_field(raw, "value", Fraction, where)
        envelope = _envelope(read_field(raw, "envelope", dict, where), f"{where}envelope.")
        class_bounds.append(ClassBound(cid, flag, value, envelope, tuple(covers)))

    return CaseRecord(
        name=name,
        path=path,
        configs=configs,
        blowups=tuple(blowups),
        flag_specs=tuple(flag_specs),
        class_bounds=tuple(class_bounds),
        delta=read_field(data, "delta", Fraction, at),
    )


def _envelope(data: dict, where: str) -> PiecewisePoly:
    """A stored envelope as integer pieces; it may jump at its breakpoints."""
    pieces = []
    for j, coeffs in enumerate(read_field(data, "pieces", list[list[Fraction]], where)):
        while coeffs and not coeffs[-1]:
            coeffs = coeffs[:-1]
        if len(coeffs) > 3:
            raise SchemaError(
                f"{where}pieces[{j}]: envelope piece {render_coeffs(coeffs)} "
                f"has degree {len(coeffs) - 1}, not <= 2"
            )
        pieces.append(Poly.from_fractions(coeffs))
    breakpoints = read_field(data, "breakpoints", list[Fraction], where)
    try:
        return PiecewisePoly(breakpoints, pieces, continuous=False)
    except ValueError as exc:
        raise SchemaError(f"{where}breakpoints: {exc}") from None


def _flag_label(record: CaseRecord, spec: FlagSpec) -> str:
    if len(record.configs) == 1:
        return spec.flag
    return f"{spec.flag}[{spec.config_id}]"


def decompose_flag(record: CaseRecord, spec: FlagSpec) -> Decomposition:
    return parametric_decompose(record.config(spec.config_id), spec.flag)


def _sweep_flags(record: CaseRecord) -> list[tuple[FlagSpec, Decomposition, FlagReport]]:
    """Sweep and report every stored flag row once, in stored order."""
    swept = []
    for spec in record.flag_specs:
        decomp = decompose_flag(record, spec)
        report = flag_report(
            record.config(spec.config_id),
            spec.flag,
            points=[p.id for p in spec.points],
            decomp=decomp,
        )
        swept.append((spec, decomp, report))
    return swept


def case_reports(record: CaseRecord) -> tuple[FlagReport, ...]:
    """Recompute the FlagReport of every stored flag row."""
    return tuple(report for _, _, report in _sweep_flags(record))


def certified_delta(record: CaseRecord) -> Fraction:
    """Certified global minimum over all stored flag reports."""
    return certify_minimum(case_reports(record))


def _row(label: str, expected: str, actual: str, passed: bool | None = None) -> CheckRow:
    """A check row; unless a verdict is given, it passes when it printed what it expected."""
    return CheckRow(label, expected, actual, expected == actual if passed is None else passed)


def verify_case(record: CaseRecord) -> CaseReport:
    fr = format_rational
    rows: list[CheckRow] = []

    for spec in record.blowups:
        stored = record.config(spec.result)
        result = blowup(
            record.config(spec.source), spec.point, e_p_name=spec.e_p_name, name=spec.name
        )
        same = config_to_json(result.config.with_points(stored.points)) == config_to_json(stored)
        actual = "match" if same else "differs from stored file"
        rows.append(_row(f"blowup({spec.result})", "recomputed configuration", actual, same))
        for key, want, got in (
            ("a", spec.a_e_p, result.a_e_p),
            ("pullback", spec.pullback_coeff, result.pullback_coeff),
        ):
            rows.append(_row(f"{key}({spec.e_p_name})={fr(want)}", fr(want), fr(got)))

    swept = _sweep_flags(record)
    decomps: dict[tuple[str, str], Decomposition] = {}
    for spec, decomp, report in swept:
        decomps.setdefault((spec.config_id, spec.flag), decomp)
        label = _flag_label(record, spec)
        rows.append(_row(f"S({label})={fr(spec.s)}", fr(spec.s), fr(report.s_flag)))
        for point, point_row in zip(spec.points, report.point_rows):
            # the expected text carries the relation, so each row states its verdict
            w, bound = point_row.s_w, point.s_w
            ok = w <= bound if point.relation == "<=" else w == bound
            want = f"{point.relation}{fr(bound)}"
            rows.append(_row(f"S_W({point.id};{label}){want}", want, fr(w), ok))
        if spec.chambers is not None:
            emitted, listed = decomposition_to_json(decomp), spec.chambers["list"]
            ok = emitted["tau"] == spec.chambers["tau"] and emitted["chambers"] == listed
            want, got = (json.dumps(x, sort_keys=True) for x in (listed, emitted["chambers"]))
            rows.append(_row(f"chambers({label})", want, got, ok))

    # a class bound reuses the flag row's sweep of its flag if there is one
    for bound in record.class_bounds:
        cfg = record.config(bound.config_id)
        decomp = decomps.get((bound.config_id, bound.flag))
        if decomp is None:
            decomp = parametric_decompose(cfg, bound.flag)
        env, label = bound.envelope, f"class_bound({bound.flag})"
        domain_ok = env.lo == 0 and env.hi == decomp.tau
        mismatch = f"envelope domain [{fr(env.lo)}, {fr(env.hi)}] is not [0, {fr(decomp.tau)}]"
        value = fr(2 * env.integrate() / cfg.norm) if domain_ok else mismatch
        rows.append(_row(f"{label}={fr(bound.value)}", fr(bound.value), value))
        for pid in bound.covers:
            ok = domain_ok and env.dominates(local_h(decomp, cfg.point(pid)))
            got = "dominates" if ok else "falls below local h" if domain_ok else mismatch
            rows.append(_row(f"{label} covers {pid}", "envelope dominates local h", got, ok))

    try:
        actual = fr(certify_minimum([report for _, _, report in swept]))
    except NotCertified as exc:
        actual = f"NotCertified: {exc}"
    rows.append(_row(f"delta={fr(record.delta)}", fr(record.delta), actual))
    return CaseReport(case=record.name, rows=tuple(rows))

