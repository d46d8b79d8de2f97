"""Acceptance gate: every shipped guarantee, one pass/fail line apiece.

Run ``pytest tests/test_acceptance.py -v`` to see one line per guarantee.
All comparisons are exact rational equalities, including the quadrature
cross-check, where Simpson's rule must reproduce every exact integral.
"""
from __future__ import annotations

import zlib
from fractions import Fraction

import pytest

from dpdelta import (
    MAIN_THEOREM_ROWS,
    certified_delta,
    kstability_verdict,
    main_theorem_delta,
    multiplier_family_1_11,
    multiplier_family_2_1,
    negative_definite_subsets,
    quadrature_check,
    random_equivalence,
    s_flag,
    s_w_point,
    verify_main_theorem_table,
)
from dpdelta.applications import row_assignments
from dpdelta.blowup import blowup
from dpdelta.catalog import decompose_flag
from dpdelta.config import intersect, validate
from dpdelta.delta import local_h
from dpdelta.poly import Poly
from dpdelta.zariski import decomposition_to_json

F = Fraction


def _spec(record, config_id, flag):
    for spec in record.flag_specs:
        if spec.config_id == config_id and spec.flag == flag:
            return spec
    raise AssertionError(f"{record.name} stores no row for {flag}[{config_id}]")


# (case, configuration, flag, required exact value of S)
REQUIRED_S = (
    ("A1-nodal", "base", "E", "1/2"),
    ("A1-cuspidal", "base", "Ebar", "5/3"),
    ("A2-nodal", "base", "E1", "5/9"),
    ("A2-nodal", "blowup", "EP", "7/6"),
    ("A2-cuspidal", "blowup", "EP", "4/3"),
    ("A3", "base", "E2", "2/3"),
    # 7/12 by hand: test_zariski.py::TestSweep::test_a3_end_of_chain_by_hand
    ("A3", "base", "E1", "7/12"),
    ("A4", "blowup", "EP", "3/2"),
    ("A4", "a", "E2", "11/15"),
    ("A4", "a", "E1", "3/5"),
    ("A5", "e3a", "E3", "5/6"),
    ("A5", "e2a", "E2", "7/9"),
    ("A5", "e2a", "E1", "11/18"),
    ("A6", "a", "E3", "8/9"),
    ("A6", "a", "E2", "29/36"),
    ("A6", "a", "E1", "13/21"),
    ("A7-reducible", "a", "E4", "1"),
    ("A7-reducible", "a", "E3", "11/12"),
    ("A7-reducible", "a", "E2", "5/6"),
    ("A7-reducible", "a", "E1", "5/8"),
    ("A7-irreducible", "base", "E4", "17/18"),
    ("A7-irreducible", "base", "E3", "17/18"),
    ("A7-irreducible", "base", "E2", "37/45"),
    ("A8", "base", "E4", "1"),
    ("A8", "base", "E3", "1"),
    ("A8", "base", "E2", "5/6"),
    ("A8", "base", "E1", "17/27"),
    ("D4", "base", "E", "1"),
    ("D4", "base", "E1", "2/3"),
    ("D5", "a", "E", "7/6"),
    ("D5", "a", "E1", "3/4"),
    ("D6", "a", "E", "4/3"),
    ("D6", "a", "E1", "5/6"),
    ("D7", "base", "E", "3/2"),
    ("D7", "base", "E1", "9/10"),
    ("D8", "base", "E", "5/3"),
    ("D8", "base", "E2", "17/18"),
    ("E6", "a", "E2", "11/9"),
    ("E7", "a", "E3", "7/3"),
    ("E7", "a", "E", "5/4"),
    ("E7", "a", "E4", "11/6"),
    ("E8", "base", "E3", "11/3"),
    ("E8", "base", "E2", "5/2"),
    ("E8", "base", "E", "17/9"),
    ("E8", "base", "E4", "3"),
)

# (case, configuration, flag, point, relation, required bound on S(W;O))
REQUIRED_S_W = (
    ("A1-nodal", "base", "E", "node", "=", "1/2"),
    ("A1-cuspidal", "base", "Ebar", "at_cbar", "=", "1/3"),
    ("A1-cuspidal", "base", "Ebar", "p1", "=", "1/12"),
    ("A1-cuspidal", "base", "Ebar", "p2", "=", "1/12"),
    ("A1-cuspidal", "base", "Ebar", "generic", "=", "1/12"),
    ("A4", "blowup", "EP", "at_lt", "<=", "1/6"),
    ("A4", "blowup", "EP", "at_e2t", "<=", "11/15"),
    ("A7-irreducible", "base", "E3", "at_f3", "<=", "14/45"),
    ("A7-irreducible", "base", "E3", "at_e2", "<=", "37/45"),
)

REQUIRED_DELTA = {
    "A1-nodal": "2",
    "A1-cuspidal": "9/5",
    "A2-nodal": "12/7",
    "A2-cuspidal": "3/2",
    "A3": "3/2",
    "A4": "4/3",
    "A5": "6/5",
    "A6": "9/8",
    "A7-reducible": "1",
    "A7-irreducible": "18/17",
    "A8": "1",
    "D4": "1",
    "D5": "6/7",
    "D6": "3/4",
    "D7": "2/3",
    "D8": "3/5",
    "E6": "3/5",
    "E7": "3/7",
    "E8": "3/11",
}

CHAMBERED_CASES = {
    "A1-nodal",
    "A1-cuspidal",
    "A2-nodal",
    "A4",
    "A7-reducible",
    "A7-irreducible",
    "A8",
    "D8",
    "E8",
}


def test_exact_s_values(records):
    failures = []
    for case, config_id, flag, required in REQUIRED_S:
        record = records[case]
        spec = _spec(record, config_id, flag)
        cfg = record.config(config_id)
        got = s_flag(cfg, flag, decompose_flag(record, spec))
        if got != F(required):
            failures.append(
                f"S({flag}) on {case}[{config_id}]: required {required}, "
                f"engine computes {got}"
            )
    if failures:
        pytest.fail("\n".join(failures))


def test_local_bounds(records):
    failures = []
    for case, config_id, flag, point, relation, bound in REQUIRED_S_W:
        record = records[case]
        spec = _spec(record, config_id, flag)
        cfg = record.config(config_id)
        got = s_w_point(cfg, flag, point, decompose_flag(record, spec))
        want = F(bound)
        ok = got == want if relation == "=" else got <= want
        if not ok:
            failures.append(
                f"S(W;{point}) on {case}[{config_id}]/{flag}: required "
                f"{relation} {bound}, engine computes {got}"
            )

    # the class-level envelope: its scaled integral and its domination of
    # every covered point's local integrand
    record = records["A2-nodal"]
    bound = record.class_bounds[0]
    cfg = record.config(bound.config_id)
    decomp = decompose_flag(record, _spec(record, bound.config_id, bound.flag))
    env = bound.envelope
    integral = F(2) * env.integrate() / cfg.norm
    if bound.value != F(14, 27) or integral != F(14, 27):
        failures.append(
            f"class envelope on A2-nodal/E1: required integral 14/27, "
            f"engine computes {integral}"
        )
    for pid in bound.covers:
        if not env.dominates(local_h(decomp, cfg.point(pid))):
            failures.append(f"class envelope fails to dominate h at {pid}")
    if failures:
        pytest.fail("\n".join(failures))


def test_certified_deltas_and_composite_table(records):
    failures = []
    for case, required in REQUIRED_DELTA.items():
        got = certified_delta(records[case])
        if got != F(required):
            failures.append(
                f"delta({case}): required {required}, engine certifies {got}"
            )
    table_failures = verify_main_theorem_table()
    failures.extend(table_failures)
    for row in MAIN_THEOREM_ROWS:
        for combo in row.combos:
            for entries in row_assignments(row, combo):
                if main_theorem_delta(entries) != row.delta:
                    failures.append(f"composite {combo}: row value not reproduced")
    if failures:
        pytest.fail("\n".join(failures))


def test_designated_chamber_structures(records):
    failures = []
    seen = []
    for record in records.values():
        for spec in record.flag_specs:
            if spec.chambers is None:
                continue
            seen.append(record.name)
            emitted = decomposition_to_json(decompose_flag(record, spec))
            if (
                emitted["tau"] != spec.chambers["tau"]
                or emitted["chambers"] != spec.chambers["list"]
            ):
                failures.append(
                    f"chamber structure of {spec.flag}[{spec.config_id}] on "
                    f"{record.name} differs from the stored one"
                )
    if len(seen) < 10:
        failures.append(f"only {len(seen)} stored chamber structures, need >= 10")
    missing = CHAMBERED_CASES - set(seen)
    if missing:
        failures.append(f"no stored chamber structure for {sorted(missing)}")
    if failures:
        pytest.fail("\n".join(failures))


def test_oracle_agreement_across_catalog(records):
    failures = []
    for record in records.values():
        for spec in record.flag_specs:
            cfg = record.config(spec.config_id)
            seed = zlib.crc32(
                f"{record.name}:{spec.config_id}:{spec.flag}".encode()
            )
            report = random_equivalence(
                cfg,
                spec.flag,
                trials=100,
                seed=seed,
                decomp=decompose_flag(record, spec),
            )
            if not report.ok or report.ambiguous:
                failures.append(
                    f"oracle disagreement on {record.name}/{spec.flag}"
                    f"[{spec.config_id}]: {len(report.mismatches)} mismatches, "
                    f"{report.ambiguous} ambiguous"
                )
    if failures:
        pytest.fail("\n".join(failures))


def test_structural_invariants(records):
    """Chamber checks by substitution only, independent of the elimination kernel.

    On every chamber: P.C = 0 on the support, the support is one of the
    oracle's negative-definite subsets, N >= 0 on the support and P.C >= 0
    off it at both ends, and P^2 decreases and stays nonnegative.
    """
    failures = []
    for record in records.values():
        for config_id, cfg in record.configs.items():
            report = validate(cfg)
            if not report.ok:
                failures.append(f"validation of {record.name}[{config_id}] fails")

        for spec in record.flag_specs:
            cfg = record.config(spec.config_id)
            decomp = decompose_flag(record, spec)
            label = f"{record.name}/{spec.flag}[{spec.config_id}]"
            definite = set(negative_definite_subsets(cfg))
            for ch in decomp.chambers:
                if any(ch.p_dot[name] != Poly() for name in ch.support):
                    failures.append(f"{label}: P meets its own negative part")
                if tuple(sorted(cfg.index(name) for name in ch.support)) not in definite:
                    failures.append(f"{label}: support not negative definite")
                for v in (ch.lo, ch.hi):
                    for name in cfg.curve_names:
                        if name in ch.support and ch.n_coeffs[name](v) < 0:
                            failures.append(f"{label}: N_{name} < 0 at v = {v}")
                        if name not in ch.support and ch.p_dot[name](v) < 0:
                            failures.append(f"{label}: P.{name} < 0 at v = {v}")
                slope = ch.p_sq.derivative()
                if slope(ch.lo) > 0 or slope(ch.hi) > 0:
                    failures.append(f"{label}: P^2 increases inside a chamber")
                if ch.p_sq(ch.lo) < 0 or ch.p_sq(ch.hi) < 0:
                    failures.append(f"{label}: P^2 negative inside the domain")
            if decomp.chambers[-1].p_sq(decomp.tau) != 0:
                failures.append(f"{label}: P^2 does not vanish at tau")
            quad = quadrature_check(decomp.p_sq_piecewise())
            if quad.numeric != quad.exact:
                failures.append(f"{label}: quadrature differs by {quad.error}")

        for bspec in record.blowups:
            source = record.config(bspec.source)
            result = blowup(
                source, bspec.point, e_p_name=bspec.e_p_name, name=bspec.name
            )
            new = result.config
            ep = new.basis_vector(bspec.e_p_name)
            ep_idx = new.index(bspec.e_p_name)
            pulled = {
                name: new.basis_vector(name)
                + ep.scale(new.gram[new.index(name)][ep_idx])
                for name in source.curve_names
            }
            for a in source.curve_names:
                for b in source.curve_names:
                    want = source.gram[source.index(a)][source.index(b)]
                    if intersect(new, pulled[a], pulled[b]) != want:
                        failures.append(
                            f"blowup of {source.name} at {bspec.point}: pullback "
                            f"breaks {a}.{b}"
                        )
    if failures:
        pytest.fail("\n".join(failures))


def test_threefold_multipliers_and_verdicts():
    failures = []
    if multiplier_family_1_11() != F(3, 2):
        failures.append(
            f"fibration multiplier: required 3/2, got {multiplier_family_1_11()}"
        )
    if multiplier_family_2_1() != F(15, 16):
        failures.append(
            f"blowup-family multiplier: required 15/16, got {multiplier_family_2_1()}"
        )
    if kstability_verdict(F(18, 17)) != "stable":
        failures.append("verdict at 18/17 is not 'stable'")
    if kstability_verdict(F(1)) != "semistable":
        failures.append("verdict at 1 is not 'semistable'")
    if failures:
        pytest.fail("\n".join(failures))
