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
from .poly import IntQuadratic, PiecewisePoly, Poly
from .rationals import format_rational, json_list, parse_rational
from .zariski import Decomposition, decomposition_to_json, parametric_decompose

_RELATIONS = ("=", "<=")


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
    config_order: tuple[str, ...]
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
    base = Path(root) if root is not None else catalog_root()
    path = base / name
    expected = path / "expected.json"
    if not expected.is_file():
        raise SchemaError(f"no case named {name!r} under {base}")
    try:
        data = json.loads(expected.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{expected}:{exc.lineno}: invalid JSON ({exc.msg})") from None
    if not isinstance(data, dict):
        raise SchemaError(f"{expected}: malformed case (a {type(data).__name__}, not an object)")
    if data.get("case") != name:
        raise SchemaError(f"expected.json in {path} names case {data.get('case')!r}")
    try:
        return _case_from_json(name, path, data)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{expected}: malformed case ({exc!r})") from exc


def _case_from_json(name: str, path: Path, data: Mapping) -> CaseRecord:
    configs: dict[str, SurfaceConfig] = {}
    order: list[str] = []
    blowups: list[BlowupSpec] = []
    for entry in data.get("configs", ()):
        cid = str(entry["id"])
        if cid in configs:
            raise SchemaError(f"duplicate configuration id {cid!r} in case {name}")
        configs[cid] = load(path / entry["file"])
        order.append(cid)
        if "blowup" in entry:
            raw = entry["blowup"]
            blowups.append(
                BlowupSpec(
                    result=cid,
                    source=str(raw["from"]),
                    point=str(raw["point"]),
                    e_p_name=str(raw["e_p_name"]),
                    name=str(raw["name"]),
                    a_e_p=parse_rational(raw["a_e_p"]),
                    pullback_coeff=parse_rational(raw["pullback_coeff"]),
                )
            )
    if not configs:
        raise SchemaError(f"case {name} stores no configurations")

    flag_specs: list[FlagSpec] = []
    for raw in data.get("flags", ()):
        cid = str(raw["config"])
        if cid not in configs:
            raise SchemaError(f"flag row references unknown configuration {cid!r}")
        cfg = configs[cid]
        flag = str(raw["flag"])
        if flag not in cfg.curve_names:
            raise SchemaError(f"configuration {cid!r} has no curve {flag!r}")
        points = []
        for p in raw.get("points", ()):
            relation = str(p.get("relation", "="))
            if relation not in _RELATIONS:
                raise SchemaError(f"unknown relation {relation!r} on point {p['id']!r}")
            _check_on_flag(name, cid, cfg, str(p["id"]), flag)
            points.append(PointExpectation(str(p["id"]), parse_rational(p["s_w"]), relation))
        flag_specs.append(
            FlagSpec(
                config_id=cid,
                flag=flag,
                s=parse_rational(raw["s"]),
                points=tuple(points),
                chambers=raw.get("chambers"),
            )
        )
    if not flag_specs:
        raise SchemaError(f"case {name} stores no flag rows")

    class_bounds: list[ClassBound] = []
    for raw in data.get("class_bounds", ()):
        cid = str(raw["config"])
        if cid not in configs:
            raise SchemaError(f"class bound references unknown configuration {cid!r}")
        for pid in raw.get("covers", ()):
            _check_on_flag(name, cid, configs[cid], str(pid), str(raw["flag"]))
        class_bounds.append(
            ClassBound(
                config_id=cid,
                flag=str(raw["flag"]),
                value=parse_rational(raw["value"]),
                envelope=_envelope(name, raw["envelope"]),
                covers=tuple(str(pid) for pid in raw.get("covers", ())),
            )
        )

    return CaseRecord(
        name=name,
        path=path,
        config_order=tuple(order),
        configs=configs,
        blowups=tuple(blowups),
        flag_specs=tuple(flag_specs),
        class_bounds=tuple(class_bounds),
        delta=parse_rational(data["delta"]),
    )


def _envelope(case: str, data: Mapping) -> PiecewisePoly:
    """A stored envelope as integer pieces; it may jump at its breakpoints."""
    pieces = []
    for coeffs in json_list(data["pieces"], f"envelope pieces in case {case}"):
        p = Poly(json_list(coeffs, f"envelope piece in case {case}"))
        if p.degree > 2:
            raise SchemaError(
                f"envelope piece {p.render()} in case {case} has degree {p.degree}, not <= 2"
            )
        pieces.append(IntQuadratic.from_fractions([p.coeff(k) for k in range(3)]))
    breakpoints = json_list(data["breakpoints"], f"envelope breakpoints in case {case}")
    try:
        return PiecewisePoly(map(parse_rational, breakpoints), pieces, continuous=False)
    except ValueError as exc:
        raise SchemaError(f"envelope in case {case}: {exc}") from None


def _check_on_flag(
    case: str, config_id: str, cfg: SurfaceConfig, point_id: str, flag: str
) -> None:
    """A stored point must exist and lie on the flag it is stored under."""
    on_curve = cfg.point(point_id).on_curve
    if on_curve != flag:
        raise SchemaError(
            f"point {point_id!r} of configuration {config_id!r} in case {case} "
            f"lies on {on_curve}, not on flag {flag!r}"
        )


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


def verify_case(record: CaseRecord) -> CaseReport:
    rows: list[CheckRow] = []

    for spec in record.blowups:
        rows.extend(_check_blowup(record, spec))

    swept = _sweep_flags(record)
    decomps: dict[tuple[str, str], Decomposition] = {}
    for spec, decomp, report in swept:
        decomps.setdefault((spec.config_id, spec.flag), decomp)
        label = _flag_label(record, spec)
        s = report.s_flag
        rows.append(
            CheckRow(
                label=f"S({label})={format_rational(spec.s)}",
                expected=format_rational(spec.s),
                actual=format_rational(s),
                passed=s == spec.s,
            )
        )
        for point, point_row in zip(spec.points, report.point_rows):
            w = point_row.s_w
            ok = w == point.s_w if point.relation == "=" else w <= point.s_w
            rows.append(
                CheckRow(
                    label=f"S_W({point.id};{label}){point.relation}{format_rational(point.s_w)}",
                    expected=f"{point.relation}{format_rational(point.s_w)}",
                    actual=format_rational(w),
                    passed=ok,
                )
            )
        if spec.chambers is not None:
            emitted = decomposition_to_json(decomp)
            ok = (
                emitted["tau"] == spec.chambers["tau"]
                and emitted["chambers"] == spec.chambers["list"]
            )
            rows.append(
                CheckRow(
                    label=f"chambers({label})",
                    expected=json.dumps(spec.chambers["list"], sort_keys=True),
                    actual=json.dumps(emitted["chambers"], sort_keys=True),
                    passed=ok,
                )
            )

    for bound in record.class_bounds:
        rows.extend(_check_class_bound(record, bound, decomps))

    try:
        delta = certify_minimum([report for _, _, report in swept])
        actual = format_rational(delta)
        passed = delta == record.delta
    except NotCertified as exc:
        actual = f"NotCertified: {exc}"
        passed = False
    rows.append(
        CheckRow(
            label=f"delta={format_rational(record.delta)}",
            expected=format_rational(record.delta),
            actual=actual,
            passed=passed,
        )
    )
    return CaseReport(case=record.name, rows=tuple(rows))


def _check_blowup(record: CaseRecord, spec: BlowupSpec) -> list[CheckRow]:
    source = record.config(spec.source)
    stored = record.config(spec.result)
    result = blowup(source, spec.point, e_p_name=spec.e_p_name, name=spec.name)
    recomputed = result.config.with_points(stored.points)
    same = config_to_json(recomputed) == config_to_json(stored)
    rows = [
        CheckRow(
            label=f"blowup({spec.result})",
            expected="recomputed configuration",
            actual="match" if same else "differs from stored file",
            passed=same,
        ),
        CheckRow(
            label=f"a({spec.e_p_name})={format_rational(spec.a_e_p)}",
            expected=format_rational(spec.a_e_p),
            actual=format_rational(result.a_e_p),
            passed=result.a_e_p == spec.a_e_p,
        ),
        CheckRow(
            label=f"pullback({spec.e_p_name})={format_rational(spec.pullback_coeff)}",
            expected=format_rational(spec.pullback_coeff),
            actual=format_rational(result.pullback_coeff),
            passed=result.pullback_coeff == spec.pullback_coeff,
        ),
    ]
    return rows


def _check_class_bound(
    record: CaseRecord,
    bound: ClassBound,
    decomps: Mapping[tuple[str, str], Decomposition],
) -> list[CheckRow]:
    """Rows of one class bound; reuses the flag row's sweep of its flag if any."""
    cfg = record.config(bound.config_id)
    decomp = decomps.get((bound.config_id, bound.flag))
    if decomp is None:
        decomp = parametric_decompose(cfg, bound.flag)
    env = bound.envelope
    rows: list[CheckRow] = []

    domain_ok = env.lo == 0 and env.hi == decomp.tau
    mismatch = (
        f"envelope domain [{format_rational(env.lo)}, {format_rational(env.hi)}] "
        f"is not [0, {format_rational(decomp.tau)}]"
    )
    integral = 2 * env.integrate() / cfg.norm
    rows.append(
        CheckRow(
            label=f"class_bound({bound.flag})={format_rational(bound.value)}",
            expected=format_rational(bound.value),
            actual=format_rational(integral) if domain_ok else mismatch,
            passed=domain_ok and integral == bound.value,
        )
    )
    for pid in bound.covers:
        if domain_ok:
            dominated = env.dominates(local_h(decomp, cfg.point(pid)))
            actual = "dominates" if dominated else "falls below local h"
        else:
            dominated, actual = False, mismatch
        rows.append(
            CheckRow(
                label=f"class_bound({bound.flag}) covers {pid}",
                expected="envelope dominates local h",
                actual=actual,
                passed=dominated,
            )
        )
    return rows


def verify_all(root: Path | str | None = None) -> dict[str, CaseReport]:
    """Verify every case in deterministic order; returns name -> report."""
    return {name: verify_case(load_case(name, root)) for name in case_names(root)}
