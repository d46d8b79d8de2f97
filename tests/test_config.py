"""Configuration data model, validation and JSON round-trips."""
from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from dpdelta import (
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
from dpdelta.rationals import parse_rational

F = Fraction

CATALOG = Path(__file__).resolve().parents[1] / "src" / "dpdelta" / "catalog"


def nodal(**overrides) -> SurfaceConfig:
    """A (-1)-curve C meeting a (-2)-curve E twice, -K = C + E."""
    kwargs = dict(
        name="nodal",
        norm=1,
        curve_names=["C", "E"],
        gram=[[-1, 2], [2, -2]],
        anti_k=[1, 1],
        points=[PointSpec("node", "E", {"C": 1}), PointSpec("generic", "E")],
    )
    kwargs.update(overrides)
    return SurfaceConfig(**kwargs)


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
            nodal(curve_names=["C", "C"])
        with pytest.raises(SchemaError, match="gram must be 2x2"):
            nodal(gram=[[-1, 2]])
        with pytest.raises(SchemaError, match="anti_k must have 2 entries"):
            nodal(anti_k=[1])

    def test_basis_lookups(self):
        cfg = nodal()
        assert cfg.curve_names == ("C", "E")
        assert cfg.index("E") == 1
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

    def test_orbifold_checks_adjunction(self, a1_cuspidal):
        # (K + Ebar).Ebar = -3/4 = -2 + 1/2 + 3/4 with K = -anti_k + 2 Ebar
        report = validate(a1_cuspidal)
        assert report.ok
        assert "log adjunction (K + C).C = -2 + deg Diff_C" in [e.rule for e in report.entries]

    def test_asymmetric_gram(self):
        # the lopsided pairing also throws off the norm and adjunction rows
        report = validate(nodal(gram=[[-1, 2], [1, -2]]))
        assert not report.ok
        assert "gram symmetric" in [e.rule for e in report.failures]

    def test_negative_meeting(self, tmp_path):
        # A2-nodal's two (-2)-curves E1 and E2 made to meet in -1 instead of 1
        data = json.loads((CATALOG / "A2-nodal" / "config_base.json").read_text())
        names = [c["name"] for c in data["curves"]]
        i, j = names.index("E1"), names.index("E2")
        data["gram"][i][j] = data["gram"][j][i] = "-1"
        report = validate(config_from_json(data))
        failures = {e.rule: e.detail for e in report.failures}
        assert failures["distinct curves meet nonnegatively"] == "negative at [('E1', 'E2')]"
        assert "gram symmetric" not in failures
        path = tmp_path / "A2-nodal.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaError) as caught:
            load(path)
        assert str(caught.value).startswith(
            f"{path}: invalid config: distinct curves meet nonnegatively: negative at [('E1', 'E2')];"
        )

    def test_anti_k_norm_mismatch(self):
        report = validate(nodal(norm=2))
        failures = {e.rule: e.detail for e in report.failures}
        assert failures["anti_k norm"] == "anti_k^2 = 1, expected 2"

    def test_adjunction_violation(self):
        report = validate(nodal(anti_k=[2, 0]))
        assert any("adjunction" in e.rule for e in report.failures)

    def test_adjunction_reads_the_discrepancies(self, tmp_path):
        # A2-nodal's blowup at E1 and E2's meeting: K = -anti_k + EP, and
        # without A(EP) = 2 the exceptional curve and both strict transforms fail
        data = json.loads((CATALOG / "A2-nodal" / "config_blowup.json").read_text())
        assert validate(config_from_json(data)).ok
        data["discrepancy"] = {}
        path = tmp_path / "A2-nodal-blowup.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaError) as caught:
            load(path)
        assert str(caught.value) == (
            f"{path}: invalid config: log adjunction (K + C).C = -2 + deg Diff_C: "
            "E1: -3 != -2 + 0; E2: -3 != -2 + 0; EP: -1 != -2 + 0"
        )

    def test_every_blowup_of_the_catalog_validates(self, records):
        # the strict transforms through the center included
        configs = [cfg for record in records.values() for cfg in record.configs.values()]
        blown = [
            blowup(cfg, point, e_p_name="EX").config
            for cfg in configs
            if cfg.smooth_surface
            for point in cfg.points
        ]
        assert len(blown) == 270
        assert [b.name for b in blown if not validate(b).ok] == []

    def test_adjunction_reads_the_differents(self, a1_cuspidal):
        # the different at p2 as it was stored before its repair
        points = [
            PointSpec(p.id, p.on_curve, p.incidences, "2/3" if p.id == "p2" else p.different)
            for p in a1_cuspidal.points
        ]
        report = validate(a1_cuspidal.with_points(points))
        assert report.config_name == "A1-cuspidal"
        assert {e.rule: e.detail for e in report.failures} == {
            "log adjunction (K + C).C = -2 + deg Diff_C": "Ebar: -3/4 != -2 + 7/6"
        }
        # a different on a smooth surface breaks both rules, each naming where
        report = validate(nodal(points=[PointSpec("node", "E", {"C": 1}, different="1/2")]))
        assert {e.rule: e.detail for e in report.failures} == {
            "log adjunction (K + C).C = -2 + deg Diff_C": "E: -2 != -2 + 1/2",
            "smooth surface has integral intersections and no differents": "node: different 1/2",
        }

    def test_a_smooth_surface_has_no_fractions(self, a1_cuspidal):
        data = config_to_json(a1_cuspidal)
        data["smooth_surface"] = True
        report = validate(config_from_json(data))
        assert {e.rule: e.detail for e in report.failures} == {
            "smooth surface has integral intersections and no differents": (
                "Ebar.Ebar = -1/4; p1: different 1/2; p2: different 3/4"
            )
        }

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

    def test_duplicate_point_id(self):
        # config.point("node") finds only the first, so the second is unreachable
        points = [*nodal().points, PointSpec("node", "C")]
        report = validate(nodal(points=points))
        assert {e.rule: e.detail for e in report.failures} == {
            "point specs consistent": "duplicate point id node"
        }

    def test_bool_multiplicity(self):
        # True is an int to Python, and it would pass as multiplicity 1
        report = validate(nodal(points=[PointSpec("q", "E", {"C": True})]))
        entry = next(e for e in report.failures if e.rule == "point specs consistent")
        assert entry.detail == "q: incidence with C must be a positive integer"

    def test_render_marks_failures(self):
        text = validate(nodal(norm=2)).render()
        assert text.startswith("validation of nodal:")
        assert "[FAIL] anti_k norm" in text
        assert "[ok]" in text

    def test_render_of_every_rule(self):
        # a passing anti_k norm keeps its detail; the other rules print none
        assert validate(nodal()).render() == "\n".join([
            "validation of nodal:",
            "  [ok] gram symmetric",
            "  [ok] distinct curves meet nonnegatively",
            "  [ok] anti_k norm (anti_k^2 = 1, expected 1)",
            "  [ok] log adjunction (K + C).C = -2 + deg Diff_C",
            "  [ok] smooth surface has integral intersections and no differents",
            "  [ok] discrepancy keys are curves",
            "  [ok] point specs consistent",
        ])
        broken = nodal(
            name="broken",
            norm=5,
            gram=[[-2, 2], [-1, -3]],
            discrepancy={"Z": 1},
            points=[PointSpec("q", "Z"), PointSpec("r", "E", {"C": True}, different=1)],
        )
        assert validate(broken).render() == "\n".join([
            "validation of broken:",
            "  [FAIL] gram symmetric (asymmetric at [('C', 'E')])",
            "  [FAIL] distinct curves meet nonnegatively (negative at [('C', 'E')])",
            "  [FAIL] anti_k norm (anti_k^2 = -4, expected 5)",
            "  [FAIL] log adjunction (K + C).C = -2 + deg Diff_C "
            "(C: 1 != -2 + 0; E: -2 != -2 + 1)",
            "  [FAIL] smooth surface has integral intersections and no differents "
            "(r: different 1)",
            "  [FAIL] discrepancy keys are curves (unknown ['Z'])",
            "  [FAIL] point specs consistent (q: unknown flag curve Z; "
            "r: different 1 outside [0,1); r: incidence with C must be a positive integer)",
        ])


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
        with pytest.raises(SchemaError, match="^bad.json: curves is missing$"):
            config_from_json({"name": "x"}, source="bad.json")
        with pytest.raises(SchemaError, match=r"^bad.json: curves\[1\]\.name is missing$"):
            config_from_json(
                {"name": "x", "curves": [{"name": "C"}, {"self_int": "-1"}]},
                source="bad.json",
            )

    def test_curves_are_their_names(self):
        # the older form, as bench/lattice.py still writes it, carries a copy of
        # the Gram diagonal and a kind; the reader ignores both
        data = config_to_json(nodal())
        assert data["curves"] == [{"name": "C"}, {"name": "E"}]
        old = {**data, "curves": [
            {"name": "C", "self_int": "-1", "kind": "minus_one"},
            {"name": "E", "self_int": "-2", "kind": "minus_two"},
        ]}
        assert config_to_json(config_from_json(old)) == data

    @pytest.mark.parametrize("value", [1.9, True, "1"])
    def test_incidence_must_be_an_integer(self, value):
        data = config_to_json(nodal())
        data["points"][0]["incidences"]["C"] = value
        message = f"bad.json: points[0].incidences.C must be an integer, got {value!r}"
        with pytest.raises(SchemaError) as caught:
            config_from_json(data, source="bad.json")
        assert str(caught.value) == message

    def test_bool_is_not_a_rational(self):
        with pytest.raises(SchemaError, match="not a rational: True"):
            parse_rational(True)
        data = json.loads((CATALOG / "A1-nodal" / "config_base.json").read_text())
        assert validate(config_from_json(data)).ok
        data["norm"] = True  # it would read as 1, the right norm
        with pytest.raises(SchemaError, match="^A1-nodal.json: norm must be a rational, got True$"):
            config_from_json(data, source="A1-nodal.json")

    @pytest.mark.parametrize("value", ["no", "false", 0, 1, None])
    def test_smooth_surface_must_be_a_bool(self, value):
        data = json.loads((CATALOG / "A1-nodal" / "config_base.json").read_text())
        for flag in (True, False):
            data["smooth_surface"] = flag
            assert config_from_json(data).smooth_surface is flag
        data["smooth_surface"] = value  # bool() would read "no" and "false" as true
        message = f"A1-nodal.json: smooth_surface must be true or false, got {value!r}"
        with pytest.raises(SchemaError) as caught:
            config_from_json(data, source="A1-nodal.json")
        assert str(caught.value) == message

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
