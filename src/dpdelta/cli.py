"""Command-line interface.

Exit codes: 0 on success, 1 when a computation or verification fails
(a bound not met, a certification refused, an oracle mismatch), 2 on usage
or input-schema errors.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .blowup import blowup
from .catalog import CaseRecord, case_names, certified_delta, load_case, verify_case
from .config import SurfaceConfig, load, save
from .delta import flag_report
from .errors import DpDeltaError, MissingFlag, NotCertified, SchemaError
from .oracle import random_equivalence
from .rationals import format_rational
from .zariski import decomposition_to_json, parametric_decompose
from .applications import (
    MAIN_THEOREM_ROWS,
    main_theorem_delta,
    parse_singularities,
    verify_main_theorem_table,
)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpdelta",
        description="Exact delta-invariant computations for degree-1 Du Val "
        "del Pezzo surface configurations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="path to a configuration JSON file")
        p.add_argument("--case", help="catalog case name")
        p.add_argument("--variant", help="configuration id inside the case")

    p = sub.add_parser("decompose", help="parametric Zariski decomposition of a flag")
    add_source(p)
    p.add_argument("--flag", required=True, help="flag curve name")
    p.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("s", help="expected vanishing order S(flag)")
    add_source(p)
    p.add_argument("--flag", required=True)
    p.set_defaults(func=_cmd_s)

    p = sub.add_parser("sw", help="localized bound S(W;O) at a stored point")
    add_source(p)
    p.add_argument("--flag", required=True)
    p.add_argument("--point", required=True, help="point class id")
    p.set_defaults(func=_cmd_sw)

    p = sub.add_parser("delta-case", help="certified delta of one catalog case")
    p.add_argument("--case", required=True)
    p.set_defaults(func=_cmd_delta_case)

    p = sub.add_parser("verify", help="recompute the stored expectations")
    p.add_argument("--case", help="verify a single case (default: every case)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("table", help="composite delta table")
    p.add_argument(
        "--singularities",
        help="a '+'-joined list such as 'A4+A2' or 'A7:red+A1'; prints its delta",
    )
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("blowup", help="blow up a stored point of a configuration")
    p.add_argument("--config", required=True, help="path to the source configuration")
    p.add_argument("--point", required=True, help="point class id to blow up")
    p.add_argument("--out", required=True, help="where to write the new configuration")
    p.add_argument("--ep", default="EP", help="name for the exceptional curve")
    p.add_argument("--name", help="name for the new configuration")
    p.set_defaults(func=_cmd_blowup)

    p = sub.add_parser("oracle", help="randomized cross-check of one decomposition")
    p.add_argument("--case", required=True)
    p.add_argument("--flag", required=True)
    p.add_argument("--variant", help="configuration id inside the case")
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_oracle)

    return parser


def _resolve_source(args) -> SurfaceConfig:
    """Configuration of the requested flag.

    With --config the file is loaded as-is. With --case the configuration is
    the one named by --variant, or else the one of the first stored flag row
    matching --flag, or else the case's first configuration.
    """
    if args.config and args.case:
        raise SchemaError("give either --config or --case, not both")
    if args.config:
        return load(Path(args.config))
    if not args.case:
        raise SchemaError("one of --config or --case is required")
    record = load_case(args.case)
    config = _case_config(record, args)
    return config if config is not None else next(iter(record.configs.values()))


def _case_config(record: CaseRecord, args) -> SurfaceConfig | None:
    """The configuration --variant names, else the one of the first stored
    flag row for --flag; None when no row stores that flag."""
    if args.variant:
        return record.config(args.variant)
    spec = next((s for s in record.flag_specs if s.flag == args.flag), None)
    return None if spec is None else record.config(spec.config_id)


def _cmd_decompose(args) -> int:
    cfg = _resolve_source(args)
    decomp = parametric_decompose(cfg, args.flag)
    if args.json:
        print(json.dumps(decomposition_to_json(decomp), indent=2))
        return 0
    print(f"{cfg.name}: anti_k - v*{args.flag}, tau = {format_rational(decomp.tau)}")
    fi = cfg.index(args.flag)
    for ch in decomp.chambers:
        support = (
            ", ".join(
                f"{name}: {ch.n_coeffs[name].render()}" for name in ch.support
            )
            or "empty"
        )
        print(
            f"  [{format_rational(ch.lo)}, {format_rational(ch.hi)}]  "
            f"N = {{{support}}}"
        )
        print(
            f"      P^2 = {ch.p_sq.render()}, "
            f"P.{args.flag} = {ch.p_dot_at(fi).render()}"
        )
    return 0


def _cmd_s(args) -> int:
    cfg = _resolve_source(args)
    report = flag_report(cfg, args.flag, points=[])
    print(
        f"S({args.flag}) = {format_rational(report.s_flag)} on {cfg.name}; "
        f"A = {format_rational(report.a_flag)}, "
        f"A/S = {format_rational(report.upper_delta)}"
    )
    return 0


def _cmd_sw(args) -> int:
    cfg = _resolve_source(args)
    (row,) = flag_report(cfg, args.flag, points=[args.point]).point_rows
    print(
        f"S(W;{row.point_id}) = {format_rational(row.s_w)} on flag {args.flag} of "
        f"{cfg.name}; A_O = {format_rational(row.a_local)}, "
        f"ratio = {format_rational(row.ratio)}"
    )
    return 0


def _cmd_delta_case(args) -> int:
    record = load_case(args.case)
    try:
        value = certified_delta(record)
    except NotCertified as exc:
        print(f"not certified: {exc}", file=sys.stderr)
        return 1
    print(f"delta({record.name}) = {format_rational(value)}")
    return 0


def _cmd_verify(args) -> int:
    names = [args.case] if args.case else list(case_names())
    failed = 0
    for name in names:
        report = verify_case(load_case(name))
        print(report.render())
        if not report.passed:
            failed += 1
    total = len(names)
    if failed:
        print(f"{failed} of {total} cases FAILED")
        return 1
    print(f"{total} case{'s' if total != 1 else ''}, all PASS")
    return 0


def _cmd_table(args) -> int:
    if args.singularities:
        try:
            value = main_theorem_delta(parse_singularities(args.singularities))
        except MissingFlag as exc:
            print(f"undetermined: {exc}", file=sys.stderr)
            return 1
        print(format_rational(value))
        return 0
    failures = verify_main_theorem_table()
    if failures:
        for failure in failures:
            print(f"table row contradicts the catalog: {failure}", file=sys.stderr)
        return 1
    for row in MAIN_THEOREM_ROWS:
        condition = f"  ({row.condition})" if row.condition else ""
        print(f"{', '.join(row.combos)}{condition}: {format_rational(row.delta)}")
    return 0


def _cmd_blowup(args) -> int:
    cfg = load(Path(args.config))
    result = blowup(cfg, args.point, e_p_name=args.ep, name=args.name)
    save(result.config, Path(args.out))
    print(
        f"blew up {cfg.name} at {args.point}: wrote {result.config.name} to "
        f"{args.out}; a({result.e_p_name}) = {format_rational(result.a_e_p)}, "
        f"pullback coefficient = {format_rational(result.pullback_coeff)}"
    )
    return 0


def _cmd_oracle(args) -> int:
    record = load_case(args.case)
    cfg = _case_config(record, args)
    if cfg is None:
        raise SchemaError(f"case {record.name} stores no flag row for {args.flag!r}")
    decomp = parametric_decompose(cfg, args.flag)
    report = random_equivalence(
        cfg, args.flag, trials=args.trials, seed=args.seed, decomp=decomp
    )
    status = "agrees" if report.ok else "DISAGREES"
    print(
        f"oracle on {cfg.name}/{args.flag}: {report.trials} samples "
        f"(seed {report.seed}, tau = {format_rational(report.tau)}), "
        f"{len(report.mismatches)} mismatches, {report.ambiguous} ambiguous "
        f"-> {status}"
    )
    return 0 if report.ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (SchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DpDeltaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
