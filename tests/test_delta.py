"""Expected vanishing orders, localized bounds and minimum certification."""
from __future__ import annotations

from fractions import Fraction

import pytest

from dpdelta import (
    FlagReport,
    NotCertified,
    PointRow,
    PointSpec,
    SchemaError,
    certify_minimum,
    flag_report,
    local_h,
    parametric_decompose,
    s_flag,
    s_w_point,
)
from dpdelta import zariski
from dpdelta.catalog import decompose_flag
from dpdelta.poly import Poly
from refpoly import RefPoly, ref

F = Fraction


@pytest.fixture(scope="module")
def nodal_decomp(a1_nodal):
    return parametric_decompose(a1_nodal, "E")


class TestSFlag:
    def test_hand_value(self, a1_nodal, nodal_decomp):
        assert s_flag(a1_nodal, "E", nodal_decomp) == F(1, 2)
        # recomputes the decomposition when none is supplied
        assert s_flag(a1_nodal, "E") == F(1, 2)

    def test_orbifold_normalization(self, a1_cuspidal):
        assert s_flag(a1_cuspidal, "Ebar") == F(5, 3)

    def test_rejects_another_flags_decomposition(self, records):
        a3 = records["A3"].config("base")
        e2 = parametric_decompose(a3, "E2")
        with pytest.raises(
            ValueError, match="decomposition of flag E2 passed for flag E1 on config A3"
        ):
            s_flag(a3, "E1", e2)


class TestLocalH:
    def test_integrand_by_hand(self, a1_nodal, nodal_decomp):
        at_node = local_h(nodal_decomp, a1_nodal.point("node"))
        assert at_node.breakpoints == (F(0), F(1, 2), F(1))
        assert at_node.pieces == (Poly(0, 0, 2, 1), Poly(0, 2, -2, 1))
        at_generic = local_h(nodal_decomp, a1_nodal.point("generic"))
        assert at_generic.pieces == (Poly(0, 0, 2, 1), Poly(2, -4, 2, 1))

    def test_n_dot_flag_tracks_point_incidences(self, a1_nodal, nodal_decomp):
        # h = (P.F)(N.F)_O + (P.F)^2/2 with P.F = 2v, then 2 - 2v. At the
        # node (N.F)_O is 0 on the first chamber and -1 + 2v on the second;
        # at the generic point it is 0 on the second.
        e = a1_nodal.index("E")
        p_first, p_second = (ref(ch.p_dot_at(e)) for ch in nodal_decomp.chambers)
        half = F(1, 2)
        first, second = (ref(q) for q in local_h(nodal_decomp, "node").pieces)
        assert first == p_first * RefPoly() + p_first * p_first * half
        assert second == p_second * RefPoly([-1, 2]) + p_second * p_second * half
        generic = ref(local_h(nodal_decomp, "generic").pieces[1])
        assert generic == p_second * RefPoly() + p_second * p_second * half

    def test_by_point_id_or_spec(self, a1_nodal, nodal_decomp):
        h = local_h(nodal_decomp, "node")
        assert h.breakpoints == (F(0), F(1, 2), F(1))
        # (N.F)_node is 0 at v = 1/4 and 1/2 at v = 3/4
        cases = zip(nodal_decomp.chambers, h.pieces, (F(1, 4), F(3, 4)), (0, F(1, 2)))
        for ch, piece, v, n_dot in cases:
            p_dot = ref(ch.p_dot_at(a1_nodal.index("E")))(v)
            assert piece.value_at(v) == p_dot * n_dot + p_dot**2 / 2
        assert local_h(nodal_decomp, a1_nodal.point("node")) == h

    def test_point_off_the_flag_is_refused(self, records):
        a3 = records["A3"].config("base")
        e2 = parametric_decompose(a3, "E2")
        with pytest.raises(
            SchemaError, match="point at_c_e1 of config A3 lies on E1, not on flag E2"
        ):
            local_h(e2, "at_c_e1")


class TestSWPoint:
    def test_hand_values(self, a1_nodal, nodal_decomp):
        assert s_w_point(a1_nodal, "E", "node", nodal_decomp) == F(1, 2)
        assert s_w_point(a1_nodal, "E", "generic", nodal_decomp) == F(1, 3)
        spec = a1_nodal.point("node")
        assert s_w_point(a1_nodal, "E", spec) == F(1, 2)

    def test_rejects_another_configs_decomposition(self, a1_nodal, nodal_decomp):
        copy = a1_nodal.with_points(a1_nodal.points)
        with pytest.raises(
            ValueError,
            match="decomposition swept on config A1-nodal passed for another "
            "config A1-nodal, flag E",
        ):
            s_w_point(copy, "E", "node", nodal_decomp)

    def test_point_off_the_flag_is_refused(self, records):
        # at_c_e1 lies on E1; on E2 it used to integrate to 1/3 silently
        a3 = records["A3"].config("base")
        with pytest.raises(
            SchemaError, match="point at_c_e1 of config A3 lies on E1, not on flag E2"
        ):
            s_w_point(a3, "E2", "at_c_e1")
        with pytest.raises(SchemaError, match="lies on E1, not on flag E2"):
            flag_report(a3, "E2", points=["at_c_e1"])

    @pytest.mark.parametrize(
        "incidences, different, problem",
        [
            # these used to give the generic 1/3 and 8/9, though C.E1 = 1
            ({"NOPE": 1}, 0, "unknown incident curve NOPE"),
            ({"C": 5}, 0, "incidence 5 with C exceeds the global intersection 1"),
            # this one used to give a lower delta of -3
            ({}, 2, r"different 2 outside \[0,1\)"),
        ],
        ids=["unknown-curve", "above-the-global-intersection", "different-outside-0-1"],
    )
    def test_inconsistent_incidences_are_refused(self, a2_nodal, incidences, different, problem):
        base = a2_nodal.config("base")
        point = PointSpec("x", "E1", incidences, different)
        message = f"^point x of config A2-nodal on flag E1: {problem}$"
        with pytest.raises(SchemaError, match=message):
            local_h(parametric_decompose(base, "E1"), point)
        with pytest.raises(SchemaError, match=message):
            s_w_point(base, "E1", point)
        with pytest.raises(SchemaError, match=message):
            flag_report(base, "E1", points=[point])

    def test_different_shrinks_the_local_discrepancy_not_s_w(self, a1_cuspidal):
        # S(W;O) only sees incidences; the different enters through A_O
        assert s_w_point(a1_cuspidal, "Ebar", "p1") == F(1, 12)
        assert s_w_point(a1_cuspidal, "Ebar", "generic") == F(1, 12)
        assert s_w_point(a1_cuspidal, "Ebar", "at_cbar") == F(1, 3)


class TestPolyReference:
    def test_matches_the_poly_reference_across_catalog(self, records, poly_reference):
        flags = points = 0
        for record in records.values():
            for spec in record.flag_specs:
                cfg = record.config(spec.config_id)
                decomp = decompose_flag(record, spec)
                label = f"{record.name}/{spec.config_id}/{spec.flag}"
                assert s_flag(cfg, spec.flag, decomp) == poly_reference.s_flag(decomp), label
                for point in cfg.points_on(spec.flag):
                    h = local_h(decomp, point)
                    assert list(h.breakpoints) == decomp.breakpoints(), (label, point.id)
                    pieces = [ref(q) for q in h.pieces]
                    assert pieces == poly_reference.h(decomp, point), (label, point.id)
                    s_w = s_w_point(cfg, spec.flag, point, decomp)
                    assert s_w == poly_reference.s_w_point(decomp, point), (label, point.id)
                    points += 1
                flags += 1
        assert flags == 95
        assert points >= 271  # every stored point, and the unstored ones on each flag

    def test_incidence_multiplicity_weights_the_negative_part(self, a1_nodal, poly_reference):
        # every catalog point meets its curves once; C.E = 2 allows a
        # tangency, where (N.F)_O counts the coefficient of C twice
        tangent = PointSpec("tangent", "E", {"C": 2})
        cfg = a1_nodal.with_points(a1_nodal.points + (tangent,))
        decomp = parametric_decompose(cfg, "E")
        pieces = [ref(q) for q in local_h(decomp, tangent).pieces]
        assert pieces == poly_reference.h(decomp, tangent)
        assert s_w_point(cfg, "E", tangent, decomp) == poly_reference.s_w_point(decomp, tangent)
        assert s_w_point(cfg, "E", "tangent", decomp) == F(2, 3)


def _with_first_chamber_negative_part(config, decomp, curve: str, coeff: Fraction):
    """The decomposition with the constant negative part `coeff * curve` on
    its first chamber, whose support is empty, built from the integer rows
    as the sweep builds them. P^2 = D^2 - N.D and P.C follow from the rows.
    No sweep builds such a chamber: P.curve != 0 on it, so N is not
    orthogonal to P."""
    direction = zariski._direction(config, decomp.flag)
    first = decomp.chambers[0]
    assert first.support == ()
    # scale * N = x / d with coeff = p / q: x = scale * p over d = q
    scale = config.anti_k_dots_den
    rows = zariski._rows(
        direction, [config.index(curve)], [scale * coeff.numerator], [0], coeff.denominator
    )
    chamber = zariski.Chamber(first.lo, first.hi, rows, zariski._positive_part(direction, rows))
    chambers = (chamber,) + decomp.chambers[1:]
    return zariski.Decomposition(config, decomp.flag, chambers)


class TestDiscontinuity:
    def test_jumping_negative_part_is_refused(self, a1_nodal, nodal_decomp):
        # N = E/4 on [0, 1/2] and N = (-1 + 2v) C on [1/2, 1]: P^2 reads
        # 1/4 from the left and 1/2 from the right of v = 1/2, and P.E
        # reads 3/2 and 1
        tampered = _with_first_chamber_negative_part(a1_nodal, nodal_decomp, "E", F(1, 4))
        left, right = tampered.chambers
        assert (ref(left.p_sq)(F(1, 2)), ref(right.p_sq)(F(1, 2))) == (F(1, 4), F(1, 2))
        e = a1_nodal.index("E")
        assert (ref(left.p_dot_at(e))(F(1, 2)), ref(right.p_dot_at(e))(F(1, 2))) == (F(3, 2), 1)
        with pytest.raises(ValueError, match=r"^discontinuity at 1/2: 1/4 != 1/2$"):
            s_flag(a1_nodal, "E", tampered)
        for point in ("node", "generic"):
            with pytest.raises(ValueError, match="^discontinuity at 1/2: "):
                s_w_point(a1_nodal, "E", point, tampered)


class TestFlagReport:
    def test_defaults_to_stored_points(self, a1_nodal):
        report = flag_report(a1_nodal, "E")
        assert report.a_flag == 1
        assert report.s_flag == F(1, 2)
        assert report.upper_delta == 2
        assert [row.point_id for row in report.point_rows] == ["node", "generic"]
        assert report.point_rows[0].ratio == 2
        assert report.point_rows[1].ratio == 3
        assert report.lower_delta == 2
        assert report.certified_equal

    def test_point_selection(self, a1_nodal, nodal_decomp):
        report = flag_report(a1_nodal, "E", points=["generic"], decomp=nodal_decomp)
        assert [row.point_id for row in report.point_rows] == ["generic"]

    def test_rejects_another_flags_decomposition(self, records):
        # the sweep of E2 would report S(E2) = 2/3 where S(E1) is 7/12
        a3 = records["A3"].config("base")
        e2 = parametric_decompose(a3, "E2")
        assert flag_report(a3, "E1").s_flag == F(7, 12)
        with pytest.raises(ValueError, match="flag E2 passed for flag E1"):
            flag_report(a3, "E1", decomp=e2)

    def test_orbifold_discrepancies(self, a1_cuspidal):
        report = flag_report(a1_cuspidal, "Ebar")
        assert report.a_flag == 3
        assert report.upper_delta == F(9, 5)
        rows = {row.point_id: row for row in report.point_rows}
        assert rows["p1"].a_local == F(1, 2)
        assert rows["p1"].ratio == 6
        assert rows["p2"].a_local == F(1, 4)
        assert rows["p2"].ratio == 3
        assert rows["at_cbar"].ratio == 3
        assert report.certified_equal


def synthetic_report(config, flag: str, upper: Fraction, ratios: list[Fraction]) -> FlagReport:
    """A report with prescribed A/S and point ratios (S values are dummies)."""
    return FlagReport(
        config=config,
        flag=flag,
        a_flag=upper,
        s_flag=F(1),
        point_rows=tuple(
            PointRow(f"p{i}", r, F(1)) for i, r in enumerate(ratios)
        ),
    )


class TestCertifyMinimum:
    def test_catalog_case(self, a1_nodal):
        assert certify_minimum([flag_report(a1_nodal, "E")]) == 2

    def test_empty(self):
        with pytest.raises(NotCertified, match="no flag reports supplied"):
            certify_minimum([])

    def test_unmatched_minimum(self, a1_nodal):
        report = synthetic_report(a1_nodal, "E", F(2), [F(3, 2)])
        with pytest.raises(
            NotCertified, match="no flag with A/S = 2 has matching point bounds"
        ):
            certify_minimum([report])

    def test_other_flag_undercuts(self, a1_nodal):
        good = synthetic_report(a1_nodal, "E", F(2), [F(2), F(3)])
        weak = synthetic_report(a1_nodal, "C", F(5, 2), [F(3, 2)])
        with pytest.raises(
            NotCertified, match="flag C on A1-nodal only certifies 3/2 < 2"
        ):
            certify_minimum([good, weak])

    def test_minimum_found_among_several_flags(self, a1_nodal):
        high = synthetic_report(a1_nodal, "C", F(5, 2), [F(5, 2)])
        low = synthetic_report(a1_nodal, "E", F(2), [F(2), F(3)])
        assert certify_minimum([high, low]) == 2
        assert certify_minimum([low, high]) == 2

    def test_lower_delta_includes_the_upper_bound(self, a1_nodal):
        report = synthetic_report(a1_nodal, "E", F(2), [F(3)])
        assert report.lower_delta == 2
        report = synthetic_report(a1_nodal, "E", F(2), [])
        assert report.lower_delta == 2
        assert report.certified_equal  # vacuous: no points to check
