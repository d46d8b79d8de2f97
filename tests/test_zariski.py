"""Parametric Zariski decompositions: chambers, thresholds, serialization."""
from __future__ import annotations

import copy
import hashlib
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from dpdelta import (
    CurveRecord,
    OutOfDomain,
    Poly,
    SchemaError,
    SurfaceConfig,
    decomposition_from_json,
    decomposition_to_json,
    parametric_decompose,
    s_flag,
    s_w_point,
)
from dpdelta.catalog import decompose_flag
from dpdelta import zariski
from dpdelta.errors import DpDeltaError, IrrationalRoot, NotPseudoEffective

F = Fraction


@pytest.fixture(scope="module")
def nodal_decomp(a1_nodal):
    return parametric_decompose(a1_nodal, "E")


class TestSweep:
    def test_two_chambers_by_hand(self, nodal_decomp):
        d = nodal_decomp
        assert d.tau == 1
        assert len(d.chambers) == 2

        first, second = d.chambers
        assert (first.lo, first.hi) == (F(0), F(1, 2))
        assert first.support == ()
        assert first.n_coeffs == {}
        assert first.p_sq == Poly([1, 0, -2])
        assert first.p_dot["E"] == Poly([0, 2])
        assert first.p_dot["C"] == Poly([1, -2])

        assert (second.lo, second.hi) == (F(1, 2), F(1))
        assert second.support == ("C",)
        assert second.n_coeffs["C"] == Poly([-1, 2])
        assert second.p_sq == Poly([2, -4, 2])
        assert second.p_dot["E"] == Poly([2, -2])
        assert second.p_dot["C"] == Poly()  # orthogonal to its own support

    @pytest.mark.parametrize("flag, near, far", [("E1", "E2", "E3"), ("E3", "E2", "E1")])
    def test_a3_end_of_chain_by_hand(self, records, flag, near, far):
        """S of an end of the A3 chain E1 - E2 - E3 is 7/12, derived by hand.

        C is a (-1)-curve meeting E1 and E3, and -K = C + E1 + E2 + E3;
        swapping E1 and E3 fixes the configuration, so both ends share one
        derivation. For L = -K - v*flag: L.C = 1 - v, L.near = -v, L.far = 0
        and L^2 = 1 - 2v^2.

        * [0, 3/4]: P.near = P.far = 0 gives N = (2v/3)near + (v/3)far,
          P^2 = L^2 - L.N = 1 - 4v^2/3, and P.C = 1 - 4v/3 hits 0 at 3/4.
        * [3/4, 1]: P.near = P.far = P.C = 0 gives N = (2v-1)near +
          (3v-2)far + (4v-3)C and P^2 = 4(1-v)^2, which vanishes at tau = 1.

        S = 3/4 - 3/16 + 1/48 = 7/12, the A_n closed form (2n+1)/(3(n+1))
        at n = 3.
        """
        cfg = records["A3"].config("base")
        d = parametric_decompose(cfg, flag)
        assert d.tau == 1
        assert [(ch.lo, ch.hi) for ch in d.chambers] == [(0, F(3, 4)), (F(3, 4), 1)]

        first, second = d.chambers
        assert set(first.support) == {near, far}
        assert first.n_coeffs == {near: Poly([0, F(2, 3)]), far: Poly([0, F(1, 3)])}
        assert first.p_sq == Poly([1, 0, F(-4, 3)])
        assert first.p_dot["C"] == Poly([1, F(-4, 3)])

        assert set(second.support) == {"C", near, far}
        assert second.n_coeffs == {
            near: Poly([-1, 2]),
            far: Poly([-2, 3]),
            "C": Poly([-3, 4]),
        }
        assert second.p_sq == Poly([4, -8, 4])

        by_hand = first.p_sq.integrate(0, F(3, 4)) + second.p_sq.integrate(F(3, 4), 1)
        assert by_hand == F(3, 4) - F(3, 16) + F(1, 48) == F(7, 12)
        assert s_flag(cfg, flag, d) == F(7, 12)

    def test_negative_at(self, nodal_decomp):
        assert nodal_decomp.negative_at("1/4").coeffs == {}
        part = nodal_decomp.negative_at(F(3, 4))
        assert part.support == ("C",)
        assert part.coeffs == {"C": F(1, 2)}
        # the breakpoint itself still has a vanishing negative part
        assert nodal_decomp.negative_at(F(1, 2)).coeffs == {}

    def test_chamber_at_domain(self, nodal_decomp, a2_nodal):
        assert nodal_decomp.chamber_at("1/2") is nodal_decomp.chambers[0]
        assert nodal_decomp.chamber_at(1) is nodal_decomp.chambers[1]
        with pytest.raises(OutOfDomain, match=r"v = 3/2 outside \[0, 1\]"):
            nodal_decomp.chamber_at("3/2")
        with pytest.raises(OutOfDomain):
            nodal_decomp.chamber_at("-1/10")
        # EP has coefficient 2 in the pulled-back -K; its domain is [0, 2]
        ep = parametric_decompose(a2_nodal.config("blowup"), "EP")
        assert ep.tau == 2
        assert ep.chamber_at(2) is ep.chambers[-1]

    def test_piecewise_views(self, nodal_decomp):
        p_sq = nodal_decomp.p_sq_piecewise()
        assert p_sq.breakpoints == (F(0), F(1, 2), F(1))
        assert p_sq.pieces == tuple(ch.p_sq_rows for ch in nodal_decomp.chambers)
        assert [q.poly() for q in p_sq.pieces] == [ch.p_sq for ch in nodal_decomp.chambers]
        assert p_sq.integrate() == F(1, 2)
        assert p_sq.pieces[-1].poly()(1) == 0

    def test_a_sweep_builds_no_poly(self, records, monkeypatch):
        # a chamber stores integer rows only; S and S(W;O) integrate them,
        # and a Poly view is built on its first read, once
        cfg = records["A3"].config("base")
        built: list[Poly] = []
        init = Poly.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Poly, "__init__", counting_init)
        decomp = parametric_decompose(cfg, "E1")
        assert s_flag(cfg, "E1", decomp) == F(7, 12)
        points = cfg.points_on("E1")
        assert points and len(decomp.chambers) == 2
        for point in points:
            s_w_point(cfg, "E1", point, decomp)
        assert built == []
        ch = decomp.chambers[-1]
        p_dot = ch.p_dot
        n_built = len(built)
        assert n_built > 0
        assert ch.p_dot is p_dot and len(built) == n_built

    def test_irrational_threshold_is_refused(self):
        cfg = SurfaceConfig(
            name="irr",
            norm=2,
            curves=[CurveRecord("F", -3, "other")],
            gram=[[-3]],
            anti_k=[1],
        )
        with pytest.raises(IrrationalRoot):
            parametric_decompose(cfg, "F")

    def test_every_p_dot_row_across_catalog(self, records):
        """P.C of every curve, against Fraction dot products with the Gram matrix.

        The reference is (anti_k - v*F - N(v)).C_j summed from the Gram
        matrix at each chamber's lo, midpoint and hi.
        """
        flags = 0
        for record in records.values():
            for spec in record.flag_specs:
                decomp = decompose_flag(record, spec)
                config = decomp.config
                names = config.curve_names
                fi = config.index(spec.flag)
                for ch in decomp.chambers:
                    assert set(ch.p_dot) == set(names)
                    for v in (ch.lo, (ch.lo + ch.hi) / 2, ch.hi):
                        divisor = [a - v * (i == fi) for i, a in enumerate(config.anti_k)]
                        for name, n in ch.n_coeffs.items():
                            divisor[config.index(name)] -= n(v)
                        for j, name in enumerate(names):
                            expected = sum(
                                (c * config.gram[i][j] for i, c in enumerate(divisor)), F(0)
                            )
                            assert ch.p_dot[name](v) == expected, (
                                f"{record.name}/{spec.config_id}/{spec.flag} at v = {v}, "
                                f"P.{name}"
                            )
                flags += 1
        assert flags == 95

    def test_unknown_flag(self, a1_nodal):
        with pytest.raises(SchemaError, match="unknown curve 'Z'"):
            parametric_decompose(a1_nodal, "Z")



def _curves(*pairs: tuple[str, int]) -> list[CurveRecord]:
    return [CurveRecord(name, self_int, "other") for name, self_int in pairs]


# Configurations that make the sweep fail at one raise site each, with the
# flag, the chamber index and the support the error must name.
_CYCLES = SurfaceConfig(
    name="cycles", norm=1, curves=_curves(("X0", -1), ("F", 1)),
    gram=[[-1, 0], [0, 1]], anti_k=[1, -1],
)
_SINGULAR = SurfaceConfig(
    name="singular", norm=1, curves=_curves(("X0", -2), ("X1", -2), ("G", 0)),
    gram=[[-2, 2, -1], [2, -2, -1], [-1, -1, 0]], anti_k=[0, 0, 1],
)
_VANISHES = SurfaceConfig(
    name="vanishes", norm=-1, curves=_curves(("X0", -1), ("F", 0)),
    gram=[[-1, 0], [0, 0]], anti_k=[1, 0],
)
_ENDLESS = SurfaceConfig(
    name="endless", norm=2, curves=_curves(("X0", -1), ("F", 0)),
    gram=[[-1, 0], [0, 0]], anti_k=[1, 0],
)
_IRRATIONAL = SurfaceConfig(
    name="irrational", norm=2, curves=_curves(("X0", -1), ("F", -1)),
    gram=[[-1, 0], [0, -1]], anti_k=[1, 0],
)


class TestErrorContext:
    """Each raise site of the sweep names config, flag, chamber and support."""

    @pytest.mark.parametrize(
        "config, flag, limits, error, where",
        [
            pytest.param(
                _CYCLES, "X0", {}, NotPseudoEffective,
                "support (X0, F); config cycles, flag X0, chamber 0",
                id="pivot-cycle",
            ),
            pytest.param(
                _SINGULAR, "G", {}, NotPseudoEffective,
                "support (X0, X1); config singular, flag G, chamber 0",
                id="pivot-singular",
            ),
            pytest.param(
                "A3", "E1", {"_MAX_PIVOTS": 1}, NotPseudoEffective,
                "support (E2); config A3, flag E1, chamber 0",
                id="pivot-no-convergence",
            ),
            pytest.param(
                _VANISHES, "F", {}, NotPseudoEffective,
                "support (X0); config vanishes, flag F, chamber 0",
                id="chamber-end-vanishing",
            ),
            pytest.param(
                _ENDLESS, "F", {}, NotPseudoEffective,
                "support (X0); config endless, flag F, chamber 0",
                id="chamber-end-none",
            ),
            pytest.param(
                _IRRATIONAL, "F", {}, IrrationalRoot,
                "support (X0); config irrational, flag F, chamber 0",
                id="chamber-end-irrational",
            ),
            pytest.param(
                "A3", "E1", {"_MAX_CHAMBERS": 1}, NotPseudoEffective,
                "support (E2, E3); config A3, flag E1, chamber 1",
                id="sweep-no-termination",
            ),
        ],
    )
    def test_names_all_four(self, monkeypatch, records, config, flag, limits, error, where):
        if isinstance(config, str):
            config = records[config].config("base")
        for name, value in limits.items():
            monkeypatch.setattr(zariski, name, value)
        with pytest.raises(error) as caught:
            parametric_decompose(config, flag)
        message = str(caught.value)
        assert message.endswith(where), message


def _refused(config, data, match: str) -> None:
    """decomposition_from_json raises SchemaError matching `match`, naming the config."""
    with pytest.raises(SchemaError, match=match) as caught:
        decomposition_from_json(config, data)
    assert f"config {config.name}, flag " in str(caught.value)


class TestSerialization:
    def test_emitted_json(self, nodal_decomp, records):
        data = decomposition_to_json(nodal_decomp)
        assert data["config"] == "A1-nodal"
        assert data["flag"] == "E"
        assert data["tau"] == "1"
        stored = records["A1-nodal"].flag_specs[0].chambers
        assert data["chambers"] == stored["list"]

    def test_round_trip(self, a1_nodal, nodal_decomp, same_decomposition):
        data = decomposition_to_json(nodal_decomp)
        back = decomposition_from_json(a1_nodal, data)
        assert same_decomposition(back, nodal_decomp)

    def test_round_trip_across_catalog(self, records, same_decomposition):
        flags = 0
        for record in records.values():
            for spec in record.flag_specs:
                decomp = decompose_flag(record, spec)
                back = decomposition_from_json(decomp.config, decomposition_to_json(decomp))
                assert same_decomposition(back, decomp), f"{record.name}/{spec.flag}"
                flags += 1
        assert flags == 95

    def test_catalog_json_matches_the_golden_hash(self, records):
        # sha256 over the sorted-key JSON of every catalog flag's
        # decomposition, one line each, in case and flag-row order
        digest = hashlib.sha256()
        flags = 0
        for name in sorted(records):
            record = records[name]
            for spec in record.flag_specs:
                data = decomposition_to_json(decompose_flag(record, spec))
                digest.update(json.dumps(data, sort_keys=True).encode() + b"\n")
                flags += 1
        assert flags == 95
        golden = (Path(__file__).parent / "data" / "decompositions.sha256").read_text()
        assert digest.hexdigest() == golden.strip()

    def test_every_curve_sweep_matches_the_golden_hash(self, records):
        # sha256 over one line per curve of every configuration of every
        # case: the decomposition's JSON plus every chamber's full P.C map,
        # or "<ExceptionType>: <message>" for a sweep that raises
        digest = hashlib.sha256()
        outcomes: Counter[str] = Counter()
        for name in sorted(records):
            record = records[name]
            for config_id in record.config_order:
                config = record.config(config_id)
                for flag in config.curve_names:
                    try:
                        decomp = parametric_decompose(config, flag)
                    except DpDeltaError as exc:
                        line = f"{type(exc).__name__}: {exc}"
                        outcomes[type(exc).__name__] += 1
                    else:
                        p_dot = [
                            {c: poly.to_strings() for c, poly in ch.p_dot.items()}
                            for ch in decomp.chambers
                        ]
                        line = json.dumps(
                            [decomposition_to_json(decomp), p_dot], sort_keys=True
                        )
                        outcomes["finished"] += 1
                    digest.update(line.encode() + b"\n")
        assert outcomes == {"finished": 244, "IrrationalRoot": 128}
        golden = (Path(__file__).parent / "data" / "all_curve_sweeps.sha256").read_text()
        assert digest.hexdigest() == golden.strip()

    def test_tampered_coefficients_are_caught(self, a1_nodal, nodal_decomp):
        data = decomposition_to_json(nodal_decomp)
        bad = copy.deepcopy(data)
        bad["chambers"][1]["n_coeffs"]["C"] = ["-1", "3"]
        _refused(a1_nodal, bad, "stored P\\^2 disagrees")

    def test_negative_part_not_orthogonal_to_p_is_caught(self, a1_nodal, nodal_decomp):
        # N = (-2 + 3v) C on [1/2, 1] with P^2 and P.E recomputed to match:
        # every stored row agrees, but P.C = -1 + v on C itself
        bad = copy.deepcopy(decomposition_to_json(nodal_decomp))
        second = bad["chambers"][1]
        second["n_coeffs"]["C"] = ["-2", "3"]
        second["p_sq"] = ["3", "-7", "4"]
        second["p_dot"] = ["4", "-4"]
        _refused(
            a1_nodal,
            bad,
            r"^negative part not orthogonal to P: P\.C = -1 \+ v on support curve C "
            r"on \[1/2, 1\]; config A1-nodal, flag E, chamber 1$",
        )

    def test_non_affine_coefficient_is_caught(self, a1_nodal, nodal_decomp):
        bad = copy.deepcopy(decomposition_to_json(nodal_decomp))
        bad["chambers"][1]["n_coeffs"]["C"] = ["-1", "2", "1"]
        _refused(a1_nodal, bad, "non-affine negative-part coefficient")

    def test_tampered_p_sq_is_caught(self, a1_nodal, nodal_decomp):
        bad = copy.deepcopy(decomposition_to_json(nodal_decomp))
        bad["chambers"][0]["p_sq"] = ["1", "0", "-3"]
        _refused(a1_nodal, bad, "stored P\\^2 disagrees")

    def test_tampered_p_dot_is_caught(self, a1_nodal, nodal_decomp):
        bad = copy.deepcopy(decomposition_to_json(nodal_decomp))
        bad["chambers"][0]["p_dot"] = ["1", "2"]
        _refused(a1_nodal, bad, "stored P.E disagrees")

    def test_tampered_tau_is_caught(self, a1_nodal, nodal_decomp):
        bad = copy.deepcopy(decomposition_to_json(nodal_decomp))
        bad["tau"] = "2"
        _refused(a1_nodal, bad, "do not cover \\[0, tau\\]; config A1-nodal, flag E, chamber 1$")

    def test_reversed_chamber_is_caught(self, a1_nodal, nodal_decomp):
        bad = copy.deepcopy(decomposition_to_json(nodal_decomp))
        bad["chambers"][0]["hi"] = bad["chambers"][1]["lo"] = "5"
        where = "config A1-nodal, flag E, chamber 1$"
        _refused(a1_nodal, bad, "empty or reversed chamber \\[5, 1\\]; " + where)

    def test_chamber_gap_is_caught(self, a1_nodal, nodal_decomp):
        bad = copy.deepcopy(decomposition_to_json(nodal_decomp))
        bad["chambers"][1]["lo"] = "3/5"
        _refused(a1_nodal, bad, "leave a gap at 1/2; config A1-nodal, flag E, chamber 1$")

    def test_wrong_config_is_caught(self, a1_nodal, nodal_decomp):
        bad = copy.deepcopy(decomposition_to_json(nodal_decomp))
        bad["config"] = "other"
        _refused(a1_nodal, bad, "belongs to 'other'")

    def test_unknown_flag_is_caught(self, a1_nodal, nodal_decomp):
        bad = copy.deepcopy(decomposition_to_json(nodal_decomp))
        bad["flag"] = "Z"
        _refused(a1_nodal, bad, "unknown flag curve 'Z'")

    def test_support_mismatch_is_caught(self, a1_nodal, nodal_decomp):
        bad = copy.deepcopy(decomposition_to_json(nodal_decomp))
        bad["chambers"][1]["support"] = ["C", "E"]
        _refused(a1_nodal, bad, "support/coefficient mismatch")
        # a repeated curve still matches the coefficients as a set
        bad["chambers"][1]["support"] = ["C", "C"]
        where = "config A1-nodal, flag E, chamber 1$"
        _refused(a1_nodal, bad, "duplicate support curve on \\[1/2, 1\\]; " + where)

    def test_empty_chambers_are_caught(self, a1_nodal, nodal_decomp):
        bad = copy.deepcopy(decomposition_to_json(nodal_decomp))
        bad["chambers"] = []
        _refused(a1_nodal, bad, "no chambers stored")

    def test_same_decomposition_distinguishes(self, nodal_decomp, records, same_decomposition):
        other_cfg = records["A2-nodal"].config("base")
        other = parametric_decompose(other_cfg, "E1")
        assert same_decomposition(nodal_decomp, nodal_decomp)
        assert not same_decomposition(nodal_decomp, other)
