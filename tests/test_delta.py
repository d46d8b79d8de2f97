"""Expected vanishing orders, localized bounds and minimum certification."""
from __future__ import annotations

from fractions import Fraction

import pytest

from dpdelta import (
    FlagReport,
    NotCertified,
    PointRow,
    certify_minimum,
    flag_report,
    local_h,
    parametric_decompose,
    s_flag,
    s_w_point,
)
from dpdelta.poly import Poly

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
        assert at_node.pieces == (Poly([0, 0, 2]), Poly([0, 2, -2]))
        at_generic = local_h(nodal_decomp, a1_nodal.point("generic"))
        assert at_generic.pieces == (Poly([0, 0, 2]), Poly([2, -4, 2]))


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

    def test_different_shrinks_the_local_discrepancy_not_s_w(self, a1_cuspidal):
        # S(W;O) only sees incidences; the different enters through A_O
        assert s_w_point(a1_cuspidal, "Ebar", "p1") == F(1, 12)
        assert s_w_point(a1_cuspidal, "Ebar", "generic") == F(1, 12)
        assert s_w_point(a1_cuspidal, "Ebar", "at_cbar") == F(1, 3)


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
        assert rows["p2"].a_local == F(1, 3)
        assert rows["p2"].ratio == 4
        assert rows["at_cbar"].ratio == 3
        assert report.certified_equal

    def test_render(self, a1_nodal):
        text = flag_report(a1_nodal, "E").render()
        assert text.splitlines() == [
            "flag E on A1-nodal:",
            "  A = 1, S = 1/2, A/S = 2",
            "  point node: A_O = 1, S(W;O) = 1/2, ratio = 2",
            "  point generic: A_O = 1, S(W;O) = 1/3, ratio = 3",
            "  lower = 2 (certifies A/S)",
        ]


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
