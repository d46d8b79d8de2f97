"""Configuration data model, validation and JSON round-trips."""
from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from dpdelta import (
    CurveRecord,
    DivisorClass,
    PointSpec,
    SchemaError,
    SurfaceConfig,
    blowup,
    config_from_json,
    config_to_json,
    load,
    save,
)
from dpdelta.config import dumps_canonical, intersect, validate
from dpdelta.errors import DimensionMismatch

F = Fraction

CATALOG = Path(__file__).resolve().parents[1] / "src" / "dpdelta" / "catalog"


def nodal(**overrides) -> SurfaceConfig:
    """A (-1)-curve C meeting a (-2)-curve E twice, -K = C + E."""
    kwargs = dict(
        name="nodal",
        norm=1,
        curves=[CurveRecord("C", -1, "minus_one"), CurveRecord("E", -2, "minus_two")],
        gram=[[-1, 2], [2, -2]],
        anti_k=[1, 1],
        points=[PointSpec("node", "E", {"C": 1}), PointSpec("generic", "E")],
    )
    kwargs.update(overrides)
    return SurfaceConfig(**kwargs)


class TestCurveRecord:
    def test_unknown_kind(self):
        with pytest.raises(SchemaError, match="unknown curve kind 'weird' for X"):
            CurveRecord("X", -1, "weird")

    def test_parses_self_intersection(self):
        assert CurveRecord("X", "-1/4", "orbifold").self_int == F(-1, 4)


class TestPointSpec:
    def test_defaults(self):
        p = PointSpec("p", "E")
        assert p.incidences == {}
        assert p.different == 0

    def test_different_is_parsed(self):
        assert PointSpec("p", "E", different="2/3").different == F(2, 3)


class TestDivisorClass:
    def test_arithmetic(self):
        a = DivisorClass([1, "1/2"])
        b = DivisorClass([0, 1])
        assert (a + b).coeffs == (F(1), F(3, 2))
        assert (a - b).coeffs == (F(1), F(-1, 2))
        assert a.scale("2/3").coeffs == (F(2, 3), F(1, 3))
        assert len(a) == 2

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            DivisorClass([1]) + DivisorClass([1, 2])


class TestSurfaceConfig:
    def test_constructor_checks_shapes(self):
        with pytest.raises(SchemaError, match="duplicate curve names"):
            nodal(curves=[CurveRecord("C", -1, "minus_one")] * 2)
        with pytest.raises(SchemaError, match="gram must be 2x2"):
            nodal(gram=[[-1, 2]])
        with pytest.raises(SchemaError, match="anti_k must have 2 entries"):
            nodal(anti_k=[1])

    def test_basis_lookups(self):
        cfg = nodal()
        assert cfg.curve_names == ("C", "E")
        assert cfg.index("E") == 1
        assert cfg.curve("C").kind == "minus_one"
        with pytest.raises(SchemaError, match="unknown curve 'Z' in config nodal"):
            cfg.index("Z")
        assert cfg.basis_vector("E").coeffs == (F(0), F(1))
        assert cfg.anti_k_divisor.coeffs == (F(1), F(1))

    def test_point_lookups(self):
        cfg = nodal()
        assert cfg.point("node").incidences == {"C": 1}
        with pytest.raises(SchemaError, match="unknown point 'nope'"):
            cfg.point("nope")
        assert tuple(p.id for p in cfg.points_on("E")) == ("node", "generic")
        assert cfg.points_on("C") == ()

    def test_discrepancy_defaults_to_one(self):
        cfg = nodal(discrepancy={"E": "3"})
        assert cfg.discrepancy_of("E") == 3
        assert cfg.discrepancy_of("C") == 1
        with pytest.raises(SchemaError):
            cfg.discrepancy_of("Z")

    def test_with_points(self):
        cfg = nodal()
        trimmed = cfg.with_points([cfg.point("generic")])
        assert tuple(p.id for p in trimmed.points) == ("generic",)
        assert trimmed.gram == cfg.gram

    def test_with_points_shares_the_parsed_form(self, a2_nodal):
        cfg = a2_nodal.config("base")
        trimmed = cfg.with_points(cfg.points[:1])
        assert trimmed.points == cfg.points[:1] and len(cfg.points) > 1
        assert trimmed.int_gram is cfg.int_gram and trimmed.gram is cfg.gram
        copy = cfg.with_points(cfg.points)
        assert copy is not cfg
        assert config_to_json(copy) == config_to_json(cfg)


class TestIntersection:
    def test_gram_bilinear_form(self):
        cfg = nodal()
        anti_k = cfg.anti_k_divisor
        assert intersect(cfg, anti_k, anti_k) == 1
        assert intersect(cfg, anti_k, cfg.basis_vector("C")) == 1
        assert intersect(cfg, anti_k, cfg.basis_vector("E")) == 0
        assert cfg.anti_k_dots == (1, 0)

    def test_anti_k_row_matches_intersect(self, records):
        """(-K).C_j is stored once per config and agrees with the Gram form."""
        configs = [cfg for record in records.values() for cfg in record.configs.values()]
        blown = [
            blowup(cfg, point, e_p_name="EX").config
            for cfg in configs
            if cfg.smooth_surface
            for point in cfg.points
        ]
        zero = nodal(norm=0, anti_k=[0, 0])
        assert len(configs) == 42 and len(blown) > len(configs)
        for cfg in configs + blown + [zero]:
            for j, name in enumerate(cfg.curve_names):
                want = intersect(cfg, cfg.anti_k_divisor, cfg.basis_vector(name))
                assert cfg.anti_k_dots[j] == want, f"{cfg.name}/{name}"
            assert set(config_to_json(cfg)) == set(config_to_json(nodal()))
        assert zero.anti_k_dots == (0, 0)

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            intersect(nodal(), DivisorClass([1]), DivisorClass([1, 2]))


class TestValidate:
    def test_valid_config(self):
        report = validate(nodal())
        assert report.ok
        assert report.failures == ()
        rules = [e.rule for e in report.entries]
        assert "anti_k norm" in rules
        assert any("adjunction" in r for r in rules)

    def test_orbifold_skips_adjunction(self, a1_cuspidal):
        report = validate(a1_cuspidal)
        assert report.ok
        assert not any("adjunction" in e.rule for e in report.entries)

    def test_asymmetric_gram(self):
        # the lopsided pairing also throws off the norm and adjunction rows
        report = validate(nodal(gram=[[-1, 2], [1, -2]]))
        assert not report.ok
        assert "gram symmetric" in [e.rule for e in report.failures]

    def test_diagonal_mismatch(self):
        report = validate(nodal(gram=[[-2, 2], [2, -2]]))
        assert "gram diagonal equals self-intersections" in [
            e.rule for e in report.failures
        ]

    def test_kind_mismatch(self):
        bad = nodal(
            curves=[CurveRecord("C", -2, "minus_one"), CurveRecord("E", -2, "minus_two")],
            gram=[[-2, 2], [2, -2]],
        )
        report = validate(bad)
        assert "curve kinds match self-intersections" in [e.rule for e in report.failures]

    def test_anti_k_norm_mismatch(self):
        report = validate(nodal(norm=2))
        failures = {e.rule: e.detail for e in report.failures}
        assert failures["anti_k norm"] == "anti_k^2 = 1, expected 2"

    def test_adjunction_violation(self):
        report = validate(nodal(anti_k=[2, 0]))
        assert any("adjunction" in e.rule for e in report.failures)

    def test_unknown_discrepancy_key(self):
        report = validate(nodal(discrepancy={"Z": 1}))
        assert "discrepancy keys are curves" in [e.rule for e in report.failures]

    def test_bad_points(self):
        bad_points = [
            PointSpec("q1", "Z"),
            PointSpec("q2", "E", different="3/2"),
            PointSpec("q3", "E", {"Z": 1}),
            PointSpec("q4", "E", {"C": 3}),
        ]
        report = validate(nodal(points=bad_points))
        entry = next(e for e in report.failures if e.rule == "point specs consistent")
        assert "q1: unknown flag curve Z" in entry.detail
        assert "q2: different 3/2 outside [0,1)" in entry.detail
        assert "q3: unknown incident curve Z" in entry.detail
        assert "q4: incidence 3 with C exceeds the global intersection 2" in entry.detail

    def test_render_marks_failures(self):
        text = validate(nodal(norm=2)).render()
        assert text.startswith("validation of nodal:")
        assert "[FAIL] anti_k norm" in text
        assert "[ok]" in text


class TestJson:
    def test_round_trip(self):
        cfg = nodal(discrepancy={"E": 1})
        data = config_to_json(cfg)
        assert list(data) == [
            "name",
            "norm",
            "smooth_surface",
            "curves",
            "gram",
            "anti_k",
            "discrepancy",
            "points",
        ]
        back = config_from_json(data)
        assert config_to_json(back) == data
        assert back.points[0].incidences == {"C": 1}

    def test_from_json_reports_source(self):
        with pytest.raises(SchemaError, match="bad.json: malformed config"):
            config_from_json({"name": "x"}, source="bad.json")
        with pytest.raises(SchemaError, match="unknown curve kind"):
            config_from_json(
                {
                    "name": "x",
                    "norm": "1",
                    "smooth_surface": True,
                    "curves": [{"name": "C", "self_int": "-1", "kind": "nope"}],
                    "gram": [["-1"]],
                    "anti_k": ["1"],
                }
            )

    def test_save_load_round_trip(self, tmp_path):
        cfg = nodal()
        path = tmp_path / "nodal.json"
        save(cfg, path)
        again = load(path)
        assert config_to_json(again) == config_to_json(cfg)
        # canonical serialization is byte-stable
        save(again, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(SchemaError, match="no such file"):
            load(tmp_path / "absent.json")

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SchemaError, match="invalid JSON"):
            load(path)

    def test_load_rejects_invalid_configs(self, tmp_path):
        data = config_to_json(nodal(norm=2))
        path = tmp_path / "invalid.json"
        path.write_text(dumps_canonical(data), encoding="utf-8")
        with pytest.raises(SchemaError, match="invalid config: anti_k norm"):
            load(path)

    def test_catalog_files_round_trip_byte_for_byte(self):
        paths = sorted(CATALOG.glob("*/config_*.json"))
        assert len(paths) == 42
        for path in paths:
            config = load(path)
            assert dumps_canonical(config_to_json(config)) == path.read_text(encoding="utf-8")
            # the integer form, recomputed from the Fraction Gram matrix
            mu = math.lcm(*(x.denominator for row in config.gram for x in row))
            assert config.mu == mu, path
            assert all((x * mu).denominator == 1 for row in config.gram for x in row), path
            assert config.int_gram == tuple(
                tuple(int(x * mu) for x in row) for row in config.gram
            ), path

    def test_dumps_canonical_shape(self):
        text = dumps_canonical({"a": 1})
        assert text == json.dumps({"a": 1}, indent=2) + "\n"
