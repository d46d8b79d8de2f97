"""Independent decomposition oracles and the quadrature cross-check."""
from __future__ import annotations

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import dpdelta
from dpdelta import (
    CurveRecord,
    PiecewisePoly,
    Poly,
    SurfaceConfig,
    brute_force_negative_part,
    negative_definite_subsets,
    parametric_decompose,
    quadrature_check,
    random_equivalence,
    sample_parameters,
    subset_table,
)
from dpdelta.errors import NoSolution
from dpdelta.oracle import EquivalenceMismatch, EquivalenceReport

F = Fraction


class TestNegativeDefiniteSubsets:
    def test_small_config(self, a1_nodal):
        subsets = negative_definite_subsets(a1_nodal)
        # index 0 is C, index 1 is E; together they span a hyperbolic plane
        assert set(subsets) == {(), (0,), (1,)}

    def test_includes_chains(self, a2_nodal):
        subsets = set(negative_definite_subsets(a2_nodal.config("base")))
        assert (1, 2) in subsets  # the two (-2)-curves
        assert (0, 1, 2) not in subsets  # the full Gram matrix is indefinite

    def test_cached_per_config(self, a1_nodal):
        assert negative_definite_subsets(a1_nodal) is negative_definite_subsets(a1_nodal)

    def test_fractional_gram(self, a1_cuspidal):
        subsets = set(negative_definite_subsets(a1_cuspidal))
        assert (0,) in subsets and (1,) in subsets
        assert (0, 1) not in subsets  # det = 3/4 - 1 < 0

    def test_semidefinite_pair(self):
        # two (-2)-curves meeting twice (det = 0) and a disjoint curve of
        # square 0: only the two singletons are definite
        cfg = SurfaceConfig(
            name="pair",
            norm=1,
            curves=[
                CurveRecord("X0", -2, "minus_two"),
                CurveRecord("X1", -2, "minus_two"),
                CurveRecord("F", 0, "other"),
            ],
            gram=[[-2, 2, 0], [2, -2, 0], [0, 0, 0]],
            anti_k=[0, 0, 0],
        )
        assert set(negative_definite_subsets(cfg)) == {(), (0,), (1,)}


class TestSubsetTable:
    def test_matches_engine(self, a1_nodal):
        decomp = parametric_decompose(a1_nodal, "E")
        table = subset_table(a1_nodal, "E")
        for v in ("1/10", "1/2", "2/3", "99/100"):
            assert table.negative_part(v) == decomp.negative_at(v)

    def test_cached_per_pair(self, a1_nodal):
        assert subset_table(a1_nodal, "E") is subset_table(a1_nodal, "E")
        assert subset_table(a1_nodal, "E") is not subset_table(a1_nodal, "C")

    def test_no_solution_beyond_threshold(self, a1_nodal):
        table = subset_table(a1_nodal, "E")
        with pytest.raises(NoSolution, match="no negative-definite support accepts v = 2"):
            table.negative_part(2)


class TestBruteForce:
    def test_matches_engine(self, a1_nodal):
        decomp = parametric_decompose(a1_nodal, "E")
        for v in (F(1, 7), F(1, 5), F(1, 2), F(4, 5), F(9, 10)):
            d = a1_nodal.anti_k_divisor - a1_nodal.basis_vector("E").scale(v)
            assert brute_force_negative_part(a1_nodal, d) == decomp.negative_at(v)

    def test_blown_up_config(self, a2_nodal):
        cfg = a2_nodal.config("blowup")
        decomp = parametric_decompose(cfg, "EP")
        v = F(7, 4)
        d = cfg.anti_k_divisor - cfg.basis_vector("EP").scale(v)
        assert brute_force_negative_part(cfg, d) == decomp.negative_at(v)

    def test_no_solution(self, a1_nodal):
        d = a1_nodal.anti_k_divisor - a1_nodal.basis_vector("E").scale(2)
        with pytest.raises(NoSolution):
            brute_force_negative_part(a1_nodal, d)

    def test_curve_count_cap(self):
        n = 17
        cfg = SurfaceConfig(
            name="big",
            norm=1,
            curves=[CurveRecord(f"X{i}", -2, "minus_two") for i in range(n)],
            gram=[[-2 if i == j else 0 for j in range(n)] for i in range(n)],
            anti_k=[0] * n,
        )
        with pytest.raises(ValueError, match="at most 16 curves, got 17"):
            brute_force_negative_part(cfg, cfg.anti_k_divisor)


class TestQuadrature:
    def test_exact_piecewise_volume(self, a1_nodal):
        decomp = parametric_decompose(a1_nodal, "E")
        report = quadrature_check(decomp.p_sq_piecewise())
        assert report.ok
        assert report.exact == report.numeric == F(1, 2)
        assert report.error == 0

    def test_quartic_piece_is_refused(self):
        cubic = PiecewisePoly([0, "1/2", 1], [Poly([0, 0, 0, 1]), Poly([0, 0, 0, 1])])
        assert quadrature_check(cubic).numeric == F(1, 4)
        quartic = PiecewisePoly([0, 1, 2], [Poly([1]), Poly([0, 0, 0, 0, 1])])
        with pytest.raises(ValueError, match="exact only up to degree 3"):
            quadrature_check(quartic)

    def test_zero_piece(self):
        pp = PiecewisePoly([0, 1], [Poly()])
        report = quadrature_check(pp)
        assert report.ok and report.exact == 0 and report.numeric == 0

    def test_import_leaves_numpy_out(self):
        src = str(Path(dpdelta.__file__).resolve().parents[1])
        code = f"import sys; sys.path.insert(0, {src!r}); import dpdelta; print('numpy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


class TestSampling:
    def test_deterministic(self):
        a = sample_parameters(F(3, 2), 20, seed=7)
        b = sample_parameters(F(3, 2), 20, seed=7)
        assert a == b
        assert a != sample_parameters(F(3, 2), 20, seed=8)

    def test_ranges_and_denominators(self):
        for tau in (F(1), F(4), F(1, 3)):
            for v in sample_parameters(tau, 50, seed=0):
                assert 0 < v < tau
                assert v.denominator <= 10_000


class TestRandomEquivalence:
    def test_small_case(self, a1_nodal):
        report = random_equivalence(a1_nodal, "E", trials=25, seed=3)
        assert report.ok
        assert report.config_name == "A1-nodal"
        assert report.flag == "E"
        assert report.trials == 25
        assert report.seed == 3
        assert report.tau == 1
        assert report.mismatches == ()
        assert report.ambiguous == 0

    def test_accepts_precomputed_decomposition(self, a1_nodal):
        decomp = parametric_decompose(a1_nodal, "E")
        assert random_equivalence(a1_nodal, "E", trials=5, seed=0, decomp=decomp).ok

    def test_trials_must_be_positive(self, a1_nodal):
        with pytest.raises(ValueError, match="trials must be positive"):
            random_equivalence(a1_nodal, "E", trials=0)

    def test_report_flags_mismatches(self, a1_nodal):
        bad = EquivalenceReport(
            config_name="x",
            flag="E",
            trials=1,
            seed=0,
            tau=F(1),
            mismatches=(EquivalenceMismatch(F(1, 2), {"C": F(1)}, {}),),
            ambiguous=0,
        )
        assert not bad.ok
        assert not EquivalenceReport("x", "E", 1, 0, F(1), (), 2).ok
