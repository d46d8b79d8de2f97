"""The frozen regression catalog: loading, verification, tamper detection."""
from __future__ import annotations

import copy
import dataclasses
import json
import shutil
from fractions import Fraction
from pathlib import Path

import pytest

import dpdelta.catalog
from dpdelta import (
    SchemaError,
    SurfaceConfig,
    case_names,
    case_reports,
    catalog_root,
    certified_delta,
    load_case,
    parametric_decompose,
    s_flag,
    verify_case,
)
from dpdelta.catalog import CheckRow, CaseReport

F = Fraction

ALL_CASES = (
    "A1-cuspidal",
    "A1-nodal",
    "A2-cuspidal",
    "A2-nodal",
    "A3",
    "A4",
    "A5",
    "A6",
    "A7-irreducible",
    "A7-reducible",
    "A8",
    "D4",
    "D5",
    "D6",
    "D7",
    "D8",
    "E6",
    "E7",
    "E8",
)


def _tampered_envelope(tmp_path, **changes) -> Path:
    """A catalog root holding a copy of A2-nodal whose class-bound envelope
    has the given `breakpoints` or `pieces`."""
    target = tmp_path / "A2-nodal"
    shutil.copytree(catalog_root() / "A2-nodal", target)
    expected = target / "expected.json"
    data = json.loads(expected.read_text(encoding="utf-8"))
    data["class_bounds"][0]["envelope"].update(changes)
    expected.write_text(json.dumps(data), encoding="utf-8")
    return tmp_path


class TestLayout:
    def test_case_names(self):
        assert case_names() == ALL_CASES

    def test_record_structure(self, a2_nodal):
        assert a2_nodal.name == "A2-nodal"
        assert tuple(a2_nodal.configs) == ("base", "blowup")
        assert a2_nodal.delta == F(12, 7)
        assert len(a2_nodal.blowups) == 1
        spec = a2_nodal.blowups[0]
        assert (spec.source, spec.result, spec.point) == ("base", "blowup", "corner")
        assert len(a2_nodal.flag_specs) == 2
        assert a2_nodal.flag_specs[0].chambers is not None
        assert len(a2_nodal.class_bounds) == 1
        bound = a2_nodal.class_bounds[0]
        assert bound.value == F(14, 27)
        assert bound.covers == ("at_c", "generic")
        assert bound.envelope.lo == 0 and bound.envelope.hi == 1

    def test_unknown_configuration(self, a2_nodal):
        with pytest.raises(SchemaError, match="has no configuration 'nope'"):
            a2_nodal.config("nope")

    def test_unknown_case(self):
        with pytest.raises(SchemaError, match="no case named 'nope'"):
            load_case("nope")

    def test_flag_inventory(self, records):
        assert sum(len(r.flag_specs) for r in records.values()) == 95
        stored_chambers = sum(
            1 for r in records.values() for s in r.flag_specs if s.chambers is not None
        )
        assert stored_chambers == 12


class TestVerification:
    def test_every_case_passes(self, records):
        total_rows = 0
        for name, record in records.items():
            report = verify_case(record)
            failing = [row.render() for row in report.rows if not row.passed]
            assert not failing, f"{name}: {failing}"
            total_rows += len(report.rows)
        assert total_rows == 411

    def test_certified_delta(self, records):
        assert certified_delta(records["A1-nodal"]) == 2
        assert certified_delta(records["E8"]) == F(3, 11)

    def test_class_bounds_reuse_the_flag_sweeps(self, a2_nodal, monkeypatch):
        calls = []

        def counted(config, flag):
            calls.append((config.name, flag))
            return parametric_decompose(config, flag)

        monkeypatch.setattr(dpdelta.catalog, "parametric_decompose", counted)
        assert a2_nodal.class_bounds
        assert verify_case(a2_nodal).passed
        assert len(calls) == len(set(calls)) == len(a2_nodal.flag_specs)

    def test_case_reports_cover_all_flags(self, a2_nodal):
        reports = case_reports(a2_nodal)
        assert [r.flag for r in reports] == ["E1", "EP"]
        assert reports[1].a_flag == 2  # discrepancy of the exceptional curve

    def test_tampered_delta_fails_one_row(self, records):
        record = dataclasses.replace(records["A1-nodal"], delta=F(3))
        report = verify_case(record)
        failing = [row for row in report.rows if not row.passed]
        assert len(failing) == 1
        assert failing[0].label == "delta=3"
        assert failing[0].actual == "2"

    def test_tampered_s_value_fails_one_row(self, records):
        record = records["A1-nodal"]
        spec = dataclasses.replace(record.flag_specs[0], s=F(3, 2))
        tampered = dataclasses.replace(record, flag_specs=(spec,))
        report = verify_case(tampered)
        failing = [row for row in report.rows if not row.passed]
        assert [row.label for row in failing] == ["S(E)=3/2"]
        assert failing[0].actual == "1/2"

    def test_tampered_pullback_coefficient_fails_one_row(self, a2_nodal):
        # the blowup record is the only stored copy of EP's anti_k coefficient
        spec = dataclasses.replace(a2_nodal.blowups[0], pullback_coeff=F(3))
        tampered = dataclasses.replace(a2_nodal, blowups=(spec,))
        report = verify_case(tampered)
        failing = [row.render() for row in report.rows if not row.passed]
        assert failing == ["pullback(EP)=3 FAIL (expected 3, got 2)"]

    def test_tampered_blowup_rows(self, a2_nodal):
        renamed = copy.copy(a2_nodal.config("blowup"))
        object.__setattr__(renamed, "name", "renamed")
        stored = dataclasses.replace(a2_nodal, configs={**a2_nodal.configs, "blowup": renamed})
        spec = dataclasses.replace(a2_nodal.blowups[0], a_e_p=F(3))
        record = dataclasses.replace(stored, blowups=(spec,))
        failing = [row.render() for row in verify_case(record).rows if not row.passed]
        assert failing == [
            "blowup(blowup) FAIL (expected recomputed configuration, got differs from stored file)",
            "a(EP)=3 FAIL (expected 3, got 2)",
        ]

    def test_tampered_upper_bound_fails_one_row(self, records):
        record = records["A4"]
        spec = record.flag_specs[8]
        points = tuple(
            dataclasses.replace(p, s_w=F(1, 7)) if p.id == "at_lt" else p for p in spec.points
        )
        specs = list(record.flag_specs)
        specs[8] = dataclasses.replace(spec, points=points)
        tampered = dataclasses.replace(record, flag_specs=tuple(specs))
        failing = [row.render() for row in verify_case(tampered).rows if not row.passed]
        assert failing == ["S_W(at_lt;EP[blowup])<=1/7 FAIL (expected <=1/7, got 1/6)"]

    def test_uncertified_delta_prints_the_refusal(self, records):
        record = dataclasses.replace(records["A1-nodal"], flag_specs=())
        assert [row.render() for row in verify_case(record).rows] == [
            "delta=2 FAIL (expected 2, got NotCertified: no flag reports supplied)"
        ]

    def test_flag_labels_include_config_for_multi_config_cases(self, records):
        rows = verify_case(records["A2-nodal"]).rows
        labels = [row.label for row in rows]
        assert "S(E1[base])=5/9" in labels
        assert "S(EP[blowup])=7/6" in labels
        assert "S_W(at_c;E1[base])=4/9" in labels
        single = [row.label for row in verify_case(records["A1-nodal"]).rows]
        assert "S(E)=1/2" in single

    def test_bound_relations_render_in_labels(self, records):
        labels = [row.label for row in verify_case(records["A4"]).rows]
        assert "S_W(at_lt;EP[blowup])<=1/6" in labels
        assert "S_W(at_e3t;EP[blowup])=11/15" in labels

    def test_envelope_below_h_fails_the_covers_rows(self, tmp_path):
        # v^2 instead of 9/8 v^2 on [0, 2/3], where h is 9/8 v^2 at both points
        pieces = [["0", "0", "1"], ["3/2", "0", "-3/2"]]
        record = load_case("A2-nodal", root=_tampered_envelope(tmp_path, pieces=pieces))
        failing = [row.render() for row in verify_case(record).rows if not row.passed]
        assert failing == [
            "class_bound(E1)=14/27 FAIL (expected 14/27, got 40/81)",
            "class_bound(E1) covers at_c FAIL "
            "(expected envelope dominates local h, got falls below local h)",
            "class_bound(E1) covers generic FAIL "
            "(expected envelope dominates local h, got falls below local h)",
        ]

    def test_verify_all_shape(self):
        reports = {name: verify_case(load_case(name)) for name in case_names()}
        assert tuple(reports) == ALL_CASES
        assert all(r.passed for r in reports.values())


class TestRenderers:
    def test_check_row(self):
        ok = CheckRow(label="S(E)=1/2", expected="1/2", actual="1/2", passed=True)
        assert ok.render() == "S(E)=1/2 OK"
        bad = CheckRow(label="S(E)=1/2", expected="1/2", actual="2/3", passed=False)
        assert bad.render() == "S(E)=1/2 FAIL (expected 1/2, got 2/3)"

    def test_case_report(self):
        rows = (
            CheckRow("a=1", "1", "1", True),
            CheckRow("b=2", "2", "3", False),
        )
        report = CaseReport(case="X", rows=rows)
        assert not report.passed
        assert report.render() == "X: a=1 OK; b=2 FAIL (expected 2, got 3)"


class TestVariants:
    def test_partition_variants_share_s(self, records):
        specs = [s for s in records["A4"].flag_specs if s.flag == "E2"]
        assert len(specs) == 7
        assert {s.s for s in specs} == {F(11, 15)}

    def test_decomposition_is_basis_order_independent(self, a2_nodal):
        base = a2_nodal.config("base")
        order = ["E2", "C", "E1"]
        idx = [base.index(n) for n in order]
        permuted = SurfaceConfig(
            name="permuted",
            norm=base.norm,
            curve_names=order,
            gram=[[base.gram[i][j] for j in idx] for i in idx],
            anti_k=[base.anti_k[i] for i in idx],
            discrepancy=base.discrepancy,
            smooth_surface=base.smooth_surface,
            points=base.points,
        )
        original = parametric_decompose(base, "E1")
        shuffled = parametric_decompose(permuted, "E1")
        assert shuffled.tau == original.tau
        assert s_flag(permuted, "E1", shuffled) == s_flag(base, "E1", original)
        for v in ("1/3", "7/10", "24/25"):
            assert shuffled.negative_at(v) == original.negative_at(v)


class TestCatalogRoot:
    def test_environment_override(self, tmp_path, monkeypatch):
        shutil.copytree(catalog_root() / "A1-nodal", tmp_path / "A1-nodal")
        monkeypatch.setenv("DPDELTA_CATALOG", str(tmp_path))
        assert catalog_root() == tmp_path
        assert case_names() == ("A1-nodal",)
        assert verify_case(load_case("A1-nodal")).passed

    def test_missing_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DPDELTA_CATALOG", str(tmp_path / "absent"))
        with pytest.raises(SchemaError, match="does not exist"):
            case_names()

    def test_empty_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DPDELTA_CATALOG", str(tmp_path))
        with pytest.raises(SchemaError, match="holds no cases"):
            case_names()


class TestLoaderSchema:
    def copy_case(self, tmp_path) -> tuple:
        target = tmp_path / "A1-nodal"
        shutil.copytree(catalog_root() / "A1-nodal", target)
        expected = target / "expected.json"
        return expected, json.loads(expected.read_text(encoding="utf-8"))

    def write_and_load(self, expected, data):
        expected.write_text(json.dumps(data), encoding="utf-8")
        return load_case("A1-nodal", root=expected.parent.parent)

    def test_case_name_mismatch(self, tmp_path):
        expected, data = self.copy_case(tmp_path)
        data["case"] = "other"
        with pytest.raises(SchemaError, match="names case 'other'"):
            self.write_and_load(expected, data)

    def test_duplicate_config_id(self, tmp_path):
        expected, data = self.copy_case(tmp_path)
        data["configs"].append(dict(data["configs"][0]))
        with pytest.raises(SchemaError, match="duplicate configuration id"):
            self.write_and_load(expected, data)

    def test_unknown_flag_config(self, tmp_path):
        expected, data = self.copy_case(tmp_path)
        data["flags"][0]["config"] = "nope"
        with pytest.raises(SchemaError, match="unknown configuration 'nope'"):
            self.write_and_load(expected, data)

    def test_unknown_flag_curve(self, tmp_path):
        expected, data = self.copy_case(tmp_path)
        data["flags"][0]["flag"] = "Z"
        with pytest.raises(SchemaError, match="has no curve 'Z'"):
            self.write_and_load(expected, data)

    def test_unknown_point(self, tmp_path):
        expected, data = self.copy_case(tmp_path)
        data["flags"][0]["points"][0]["id"] = "nope"
        with pytest.raises(SchemaError, match="unknown point 'nope'"):
            self.write_and_load(expected, data)

    def test_point_off_the_flag(self, tmp_path):
        # at_c_e1 lies on E1; stored under E2 it used to integrate silently
        target = tmp_path / "A3"
        shutil.copytree(catalog_root() / "A3", target)
        expected = target / "expected.json"
        data = json.loads(expected.read_text(encoding="utf-8"))
        assert data["flags"][0]["flag"] == "E2"
        data["flags"][0]["points"][0]["id"] = "at_c_e1"
        expected.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(
            SchemaError,
            match="point 'at_c_e1' of configuration 'base' in case A3 lies on E1, "
            "not on flag 'E2'",
        ):
            load_case("A3", root=tmp_path)

    def test_class_bound_point_off_the_flag(self, tmp_path):
        target = tmp_path / "A2-nodal"
        shutil.copytree(catalog_root() / "A2-nodal", target)
        expected = target / "expected.json"
        data = json.loads(expected.read_text(encoding="utf-8"))
        data["class_bounds"][0]["flag"] = "C"
        expected.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(SchemaError, match="lies on E1, not on flag 'C'"):
            load_case("A2-nodal", root=tmp_path)

    def test_envelope_piece_of_degree_three(self, tmp_path):
        root = _tampered_envelope(tmp_path, pieces=[["0", "0", "9/8", "1"], ["3/2", "0", "-3/2"]])
        with pytest.raises(
            SchemaError,
            match=r"A2-nodal/expected.json: class_bounds\[0\]\.envelope\.pieces\[0\]: "
            r"envelope piece 9/8\*v\^2 \+ v\^3 has degree 3",
        ):
            load_case("A2-nodal", root=root)

    def test_envelope_breakpoints_out_of_order(self, tmp_path):
        root = _tampered_envelope(tmp_path, breakpoints=["0", "1", "2/3"])
        with pytest.raises(
            SchemaError,
            match=r"A2-nodal/expected.json: class_bounds\[0\]\.envelope\.breakpoints: "
            "breakpoints must be strictly increasing",
        ):
            load_case("A2-nodal", root=root)

    @pytest.mark.parametrize(
        "changes, message",
        [
            # one piece on [0, 1], which the string would give
            (
                {"breakpoints": "01", "pieces": [["0", "0", "9/8"]]},
                r"class_bounds\[0\]\.envelope\.breakpoints must be a list, got '01'",
            ),
            (
                {"pieces": [["0", "0", "9/8"], "32"]},
                r"class_bounds\[0\]\.envelope\.pieces\[1\] must be a list, got '32'",
            ),
        ],
        ids=["breakpoints", "piece"],
    )
    def test_envelope_string_for_a_list(self, tmp_path, changes, message):
        root = _tampered_envelope(tmp_path, **changes)
        with pytest.raises(SchemaError, match=message):
            load_case("A2-nodal", root=root)

    def test_bad_relation(self, tmp_path):
        expected, data = self.copy_case(tmp_path)
        data["flags"][0]["points"][0]["relation"] = "<"
        with pytest.raises(SchemaError, match="unknown relation '<'"):
            self.write_and_load(expected, data)

    def test_no_flag_rows(self, tmp_path):
        expected, data = self.copy_case(tmp_path)
        data["flags"] = []
        with pytest.raises(SchemaError, match="stores no flag rows"):
            self.write_and_load(expected, data)

    def test_no_configs(self, tmp_path):
        expected, data = self.copy_case(tmp_path)
        data["configs"] = []
        with pytest.raises(SchemaError, match="stores no configurations"):
            self.write_and_load(expected, data)

    def test_verifier_reports_stale_chambers(self, tmp_path):
        expected, data = self.copy_case(tmp_path)
        data["flags"][0]["chambers"]["tau"] = "2"
        record = self.write_and_load(expected, data)
        report = verify_case(record)
        failing = [row.label for row in report.rows if not row.passed]
        assert failing == ["chambers(E)"]
