"""Parametric Zariski decompositions: chambers, thresholds, serialization."""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dpdelta import (
    OutOfDomain,
    Poly,
    SchemaError,
    SurfaceConfig,
    decomposition_to_json,
    local_h,
    multiplier_family_1_11,
    multiplier_family_2_1,
    parametric_decompose,
    quadrature_check,
    random_equivalence,
    s_flag,
    s_w_point,
)
from dpdelta.catalog import decompose_flag
from dpdelta import zariski
from dpdelta.errors import DpDeltaError, IrrationalRoot, NotPseudoEffective
from refpivot import first_root_after, full_scan_pivot
from refpoly import ref

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
        e, c = (nodal_decomp.config.index(name) for name in ("E", "C"))
        assert first.p_sq == Poly(1, 0, -2, 1)
        assert first.p_dot_at(e) == Poly(0, 2, 0, 1)
        assert first.p_dot_at(c) == Poly(1, -2, 0, 1)

        assert (second.lo, second.hi) == (F(1, 2), F(1))
        assert second.support == ("C",)
        assert second.n_coeffs["C"] == Poly(-1, 2, 0, 1)
        assert second.p_sq == Poly(2, -4, 2, 1)
        assert second.p_dot_at(e) == Poly(2, -2, 0, 1)
        assert second.p_dot_at(c) == Poly(0, 0, 0, 1)  # orthogonal to its own support

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
        assert first.n_coeffs == {near: Poly(0, 2, 0, 3), far: Poly(0, 1, 0, 3)}
        assert first.p_sq == Poly(3, 0, -4, 3)
        assert first.p_dot_at(cfg.index("C")) == Poly(3, -4, 0, 3)

        assert set(second.support) == {"C", near, far}
        assert second.n_coeffs == {
            near: Poly(-1, 2, 0, 1),
            far: Poly(-2, 3, 0, 1),
            "C": Poly(-3, 4, 0, 1),
        }
        assert second.p_sq == Poly(4, -8, 4, 1)

        by_hand = ref(first.p_sq).integrate(0, F(3, 4)) + ref(second.p_sq).integrate(F(3, 4), 1)
        assert by_hand == F(3, 4) - F(3, 16) + F(1, 48) == F(7, 12)
        assert s_flag(cfg, flag, d) == F(7, 12)

    def test_negative_at(self, nodal_decomp):
        assert nodal_decomp.negative_at("1/4") == {}
        assert nodal_decomp.negative_at(F(3, 4)) == {"C": F(1, 2)}
        # the breakpoint itself still has a vanishing negative part
        assert nodal_decomp.negative_at(F(1, 2)) == {}

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
        assert p_sq.pieces == tuple(ch.p_sq for ch in nodal_decomp.chambers)
        assert p_sq.integrate() == F(1, 2)
        assert ref(p_sq.pieces[-1])(1) == 0

    def test_a_sweep_builds_one_poly_per_chamber(self, records, monkeypatch):
        # a chamber stores integer rows and P^2; the sweep builds a Poly only
        # for D^2 and each chamber's P^2, S integrates those, S(W;O) builds
        # one h per chamber, the oracle's engine side, quadrature and the
        # threefold multipliers build none, and the N view is built on its
        # first read, once
        cfg = records["A3"].config("base")
        built: list[Poly] = []
        init = Poly.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Poly, "__init__", counting_init)
        decomp = parametric_decompose(cfg, "E1")
        chambers = len(decomp.chambers)
        assert chambers == 2 and len(built) == 1 + chambers
        assert s_flag(cfg, "E1", decomp) == F(7, 12)
        points = cfg.points_on("E1")
        assert points
        for point in points:
            s_w_point(cfg, "E1", point, decomp)
        assert len(built) == 1 + chambers + len(points) * chambers
        for name in ("A1-nodal", "A2-nodal", "A3", "D4"):
            record = records[name]
            for spec in record.flag_specs:
                flag_cfg = record.config(spec.config_id)
                swept = decompose_flag(record, spec)
                n_built = len(built)
                assert random_equivalence(flag_cfg, spec.flag, trials=20, decomp=swept).ok
                assert quadrature_check(swept.p_sq_piecewise()).ok
                h_pieces = [local_h(swept, point) for point in flag_cfg.points_on(spec.flag)]
                assert len(built) == n_built + len(h_pieces) * len(swept.chambers)
                assert all(quadrature_check(h).ok for h in h_pieces)
                assert len(built) == n_built + len(h_pieces) * len(swept.chambers)
        n_built = len(built)
        assert (multiplier_family_1_11(), multiplier_family_2_1()) == (F(3, 2), F(15, 16))
        ch = decomp.chambers[-1]
        assert len(built) == n_built and ch.support
        n_coeffs = ch.n_coeffs
        assert len(built) == n_built + len(ch.support)
        assert ch.n_coeffs is n_coeffs and len(built) == n_built + len(ch.support)

    def test_irrational_threshold_is_refused(self):
        cfg = SurfaceConfig(
            name="irr",
            norm=2,
            curve_names=["F"],
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
                    for v in (ch.lo, (ch.lo + ch.hi) / 2, ch.hi):
                        divisor = [a - v * (i == fi) for i, a in enumerate(config.anti_k)]
                        for name, n in ch.n_coeffs.items():
                            divisor[config.index(name)] -= ref(n)(v)
                        for j, name in enumerate(names):
                            expected = sum(
                                (c * config.gram[i][j] for i, c in enumerate(divisor)), F(0)
                            )
                            assert ref(ch.p_dot_at(j))(v) == expected, (
                                f"{record.name}/{spec.config_id}/{spec.flag} at v = {v}, "
                                f"P.{name}"
                            )
                flags += 1
        assert flags == 95

    def test_unknown_flag(self, a1_nodal):
        with pytest.raises(SchemaError, match="unknown curve 'Z'"):
            parametric_decompose(a1_nodal, "Z")



# Configurations that make the sweep fail, with the flag, the chamber index
# and the support the error must name. `indefinite` and `singular` reach the
# same raise site, the solve's refusal of a support that is not negative
# definite, through an indefinite and a singular Gram matrix.
_INDEFINITE = SurfaceConfig(
    name="indefinite", norm=1, curve_names=["X0", "F"],
    gram=[[-1, 0], [0, 1]], anti_k=[1, -1],
)
_SINGULAR = SurfaceConfig(
    name="singular", norm=1, curve_names=["X0", "X1", "G"],
    gram=[[-2, 2, -1], [2, -2, -1], [-1, -1, 0]], anti_k=[0, 0, 1],
)
_VANISHES = SurfaceConfig(
    name="vanishes", norm=-1, curve_names=["X0", "F"],
    gram=[[-1, 0], [0, 0]], anti_k=[1, 0],
)
_ENDLESS = SurfaceConfig(
    name="endless", norm=2, curve_names=["X0", "F"],
    gram=[[-1, 0], [0, 0]], anti_k=[1, 0],
)
_IRRATIONAL = SurfaceConfig(
    name="irrational", norm=2, curve_names=["X0", "F"],
    gram=[[-1, 0], [0, -1]], anti_k=[1, 0],
)
# -K.C1 = -3 < 0, so -K is not nef at v = 0 and the first pivot cannot
# take its add set from the curves -K meets in 0 (there are none).
_NOT_NEF = SurfaceConfig(
    name="not-nef", norm=F(13, 3), curve_names=["C1", "C2", "F"],
    gram=[[-2, 1, 0], [1, -2, 0], [0, 0, 1]], anti_k=[F(5, 3), F(1, 3), 3],
)
# -K = 2A + F + B with -K.B = -1, so N(0) = F + B holds the flag. On
# (F, B), N = (1 - v)F + B: only the flag's coefficient falls, and at
# v = 1 it leaves alone; B stays with N_B = (1 + v)/2 up to tau = 5.
_FLAG_EXIT = SurfaceConfig(
    name="flag-exit", norm=7, curve_names=["A", "F", "B"],
    gram=[[2, 0, 0], [0, -1, 1], [0, 1, -2]], anti_k=[2, 1, 1],
)
# X0.F = -1 breaks the sign rule: N = (1 - v)/3 X0 falls as v grows and
# reaches 0 at v = 1, where the sweep refuses to drop a curve other than
# the flag.
_FALLING = SurfaceConfig(
    name="falling", norm=5, curve_names=["X0", "X1", "F"],
    gram=[[-3, 1, -1], [1, 1, 1], [-1, 1, -2]], anti_k=[1, 2, 0],
)


class TestErrorContext:
    """Each raise site of the sweep names config, flag, chamber and support."""

    @pytest.mark.parametrize(
        "config, flag, limits, error, where",
        [
            pytest.param(
                _INDEFINITE, "X0", {}, NotPseudoEffective,
                "support not negative definite at v = 0, "
                "support (X0, F); config indefinite, flag X0, chamber 0",
                id="pivot-indefinite",
            ),
            pytest.param(
                _SINGULAR, "G", {}, NotPseudoEffective,
                "support not negative definite at v = 0, "
                "support (X0, X1); config singular, flag G, chamber 0",
                id="pivot-singular",
            ),
            pytest.param(
                _FALLING, "F", {}, NotPseudoEffective,
                "N coefficient of X0 is 0 at v = 1, not positive "
                "right after it (the sweep assumes distinct curves meet "
                "nonnegatively, as config.validate checks), support (X0); "
                "config falling, flag F, chamber 1",
                id="pivot-not-positive",
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


# F is a (-1)-curve meeting C5, one end of the A5 chain C1 - ... - C5 of
# (-2)-curves; H (H^2 = 6) meets none of them. -K = 2H - C1 - 2C2 - 3C3 -
# 4C4 - 5C5 - 6F meets each C_i in 0 and F in 1, so at v = 0 only C5's P.C
# row falls and the other links' rows are identically 0. N = (v/6)(C1 +
# 2C2 + 3C3 + 4C4 + 5C5) up to tau = 6, where P^2 = 18 - 2v - v^2/6 vanishes.
_CHAIN = SurfaceConfig(
    name="chain", norm=18, curve_names=["H", "C1", "C2", "C3", "C4", "C5", "F"],
    gram=[
        [6, 0, 0, 0, 0, 0, 0],
        [0, -2, 1, 0, 0, 0, 0],
        [0, 1, -2, 1, 0, 0, 0],
        [0, 0, 1, -2, 1, 0, 0],
        [0, 0, 0, 1, -2, 1, 0],
        [0, 0, 0, 0, 1, -2, 1],
        [0, 0, 0, 0, 0, 1, -1],
    ],
    anti_k=[2, -1, -2, -3, -4, -5, -6],
)


def _outcome(config: SurfaceConfig, flag: str) -> object:
    """A sweep's chambers as (lo, hi, rows, P^2 rows), or its error as text."""
    try:
        decomp = parametric_decompose(config, flag)
    except DpDeltaError as exc:
        return f"{type(exc).__name__}: {exc}"
    _assert_nested(decomp)
    return [(ch.lo, ch.hi, ch.rows, ch.p_sq) for ch in decomp.chambers]


def _assert_nested(decomp) -> None:
    """Off the flag, each chamber's support holds the one before it."""
    fi = decomp.config.index(decomp.flag)
    before: set[int] = set()
    for k, ch in enumerate(decomp.chambers):
        now = set(ch.rows.support) - {fi}
        assert before <= now, f"{decomp.config.name}/{decomp.flag}, chamber {k}"
        before = now


_REFUSAL = re.compile(
    r"NotPseudoEffective: support not negative definite at v = (\S+), "
    r"support \(([^)]*)\); (config .*)"
)


def _assert_same_refusal(config: SurfaceConfig, outcome: object, expected: object) -> None:
    """Both sweeps refuse a support that is not negative definite at the same
    v, flag and chamber, and the support `outcome` names is not negative
    definite: some leading principal minor of -G_S is <= 0 (Sylvester)."""
    mine = _REFUSAL.fullmatch(outcome) if isinstance(outcome, str) else None
    reference = _REFUSAL.fullmatch(expected) if isinstance(expected, str) else None
    assert mine and reference, f"{outcome!r} != {expected!r}"
    assert (mine[1], mine[3]) == (reference[1], reference[3]), f"{outcome!r} != {expected!r}"
    support = [config.index(name) for name in mine[2].split(", ")]
    minus_g = [[-config.gram[a][b] for b in support] for a in support]
    minors = [_leibniz_det([row[:k] for row in minus_g[:k]]) for k in range(1, len(support) + 1)]
    assert min(minors) <= 0, f"{outcome!r}: leading minors {minors}"


def _leibniz_det(matrix: list[list[Fraction]]) -> Fraction:
    """The determinant as the signed sum over permutations."""
    n = len(matrix)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(matrix[i][perm[i]] for i in range(n))
    return total


@st.composite
def _sign_rule_configs(draw) -> SurfaceConfig:
    """3 to 7 curves: self-intersections in [-4, 1], distinct curves meeting
    in [0, 2], and anti_k nonnegative or of either sign."""
    n = draw(st.integers(3, 7))
    pairs = n * (n - 1) // 2
    meets = iter(draw(st.lists(st.integers(0, 2), min_size=pairs, max_size=pairs)))
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = draw(st.integers(-4, 1))
        for j in range(i + 1, n):
            gram[i][j] = gram[j][i] = next(meets)
    low = draw(st.sampled_from([0, -2]))
    anti_k = draw(st.lists(st.integers(low, 3), min_size=n, max_size=n))
    norm = sum(a * b * g for a, row in zip(anti_k, gram) for b, g in zip(anti_k, row))
    names = [f"C{j}" for j in range(n)]
    return SurfaceConfig(name="random", norm=norm, curve_names=names, gram=gram, anti_k=anti_k)


class TestPivot:
    """The pivot adds curves only from the tight set, as a scan of every curve
    would, and drops no curve but the flag."""

    def test_not_nef_at_zero_scans_every_curve(self):
        decomp = parametric_decompose(_NOT_NEF, "F")
        assert [(ch.lo, ch.hi, ch.support) for ch in decomp.chambers] == [
            (0, 3, ("C1", "C2"))
        ]
        assert decomp.chambers[0].n_coeffs == {"C1": Poly(5, 0, 0, 3), "C2": Poly(1, 0, 0, 3)}
        assert decomp.tau == 3

    def test_the_flag_leaves_by_itself(self, monkeypatch):
        solves: list[tuple] = []
        solve_support = zariski._solve_support

        def recording(direction, support, v):
            solves.append((support, v))
            return solve_support(direction, support, v)

        monkeypatch.setattr(zariski, "_solve_support", recording)
        decomp = parametric_decompose(_FLAG_EXIT, "F")
        first, second = decomp.chambers
        assert [(ch.lo, ch.hi, ch.support) for ch in decomp.chambers] == [
            (0, 1, ("F", "B")),
            (1, 5, ("B",)),
        ]
        assert first.n_coeffs == {"F": Poly(1, -1, 0, 1), "B": Poly(1, 0, 0, 1)}
        assert second.n_coeffs == {"B": Poly(1, 1, 0, 2)}
        # B then F enter at v = 0; at v = N_F(0) = 1 one solve takes F out
        assert solves == [((2,), 0), ((1, 2), 0), ((2,), 1)]
        # outcomes only: the reference drops and adds in one step
        monkeypatch.setattr(zariski, "_pivot", full_scan_pivot)
        assert _outcome(_FLAG_EXIT, "F") == [
            (ch.lo, ch.hi, ch.rows, ch.p_sq) for ch in decomp.chambers
        ]

    def test_a_chain_is_added_in_one_solve(self, monkeypatch):
        """At v = 0 only C5's P.C falls; the closure adds the whole chain with it."""
        solves: list[tuple] = []
        solve_support = zariski._solve_support

        def recording(direction, support, v):
            solves.append((support, v))
            return solve_support(direction, support, v)

        monkeypatch.setattr(zariski, "_solve_support", recording)
        decomp = parametric_decompose(_CHAIN, "F")
        assert solves == [((1, 2, 3, 4, 5), 0)]
        assert [(ch.lo, ch.hi, ch.support) for ch in decomp.chambers] == [
            (0, 6, ("C1", "C2", "C3", "C4", "C5"))
        ]
        assert decomp.chambers[0].n_coeffs == {f"C{i}": Poly(0, i, 0, 6) for i in range(1, 6)}
        # the reference adds one link per solve, and ends at the same chambers
        solves.clear()
        monkeypatch.setattr(zariski, "_pivot", full_scan_pivot)
        assert _outcome(_CHAIN, "F") == [
            (ch.lo, ch.hi, ch.rows, ch.p_sq) for ch in decomp.chambers
        ]
        assert solves == [((5 - k, *range(6 - k, 6)), 0) for k in range(5)]

    @settings(max_examples=300, deadline=None)
    @given(_sign_rule_configs())
    def test_random_configurations_match_the_full_scan(self, config):
        """With the sign rule, dropping only the flag and adding zero-row
        components at once reaches what general drops reach.

        The one difference: where a support is not negative definite, the
        pivot and the reference may solve different systems first, so the
        two refusals may name different supports. They must agree on v, the
        flag and the chamber, and the support the pivot names must not be
        negative definite, by the Leibniz minors of -G_S.
        """
        mine = [_outcome(config, flag) for flag in config.curve_names]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(zariski, "_pivot", full_scan_pivot)
            reference = [_outcome(config, flag) for flag in config.curve_names]
        for outcome, expected in zip(mine, reference):
            if outcome != expected:
                _assert_same_refusal(config, outcome, expected)

    def test_same_outcomes_as_the_full_scan(self, monkeypatch, records):
        """Every curve sweep ends as the reference pivot's, in at most one
        solve per pivot on the catalog.

        Each sweep's outcome (its chambers' ends, integer rows and P^2, or
        its error text) must match the reference pivot's, which tests every
        curve for the add set after every solve. The catalog's 372 curve
        sweeps make 523 solves; adding one ring of curves per solve made
        1,412, up to 7 in one pivot.
        """
        catalog = [config for name in sorted(records) for config in records[name].configs.values()]
        hand_built = [_INDEFINITE, _SINGULAR, _VANISHES, _ENDLESS, _IRRATIONAL, _NOT_NEF]
        solve, pivot = zariski.solve, zariski._pivot
        solves: list[int] = []  # one count per pivot

        def counting_solve(matrix, rhs):
            solves[-1] += 1
            return solve(matrix, rhs)

        def counting_pivot(*args):
            solves.append(0)
            return pivot(*args)

        def sweeps(configs: list[SurfaceConfig]) -> list[object]:
            return [_outcome(config, flag) for config in configs for flag in config.curve_names]

        monkeypatch.setattr(zariski, "solve", counting_solve)
        monkeypatch.setattr(zariski, "_pivot", counting_pivot)
        mine = sweeps(catalog)
        assert len(mine) == 372
        assert sum(solves) == 523 and max(solves) == 1
        mine += sweeps(hand_built)
        monkeypatch.setattr(zariski, "solve", solve)
        monkeypatch.setattr(zariski, "_pivot", full_scan_pivot)
        full = sweeps(catalog + hand_built)
        labels = [f"{c.name}/{flag}" for c in catalog + hand_built for flag in c.curve_names]
        assert len(mine) == len(full) == len(labels) == 372 + 14
        for label, outcome, reference in zip(labels, mine, full):
            assert outcome == reference, label
        finished = sum(isinstance(outcome, list) for outcome in mine)
        assert finished == 244 + 1  # the catalog's, and F on the not-nef configuration


    def test_each_pivot_gets_the_tight_set(self, monkeypatch, records):
        """The sweep hands each pivot the curves the seed's P meets in 0 at v.

        By definition that is every curve when some seed P.C is negative at
        v, and otherwise the curves whose P.C is 0 there; the sweep reads it
        off D(0).C at v = 0 and off the previous chamber's end scan after.
        """
        configs = [config for name in sorted(records) for config in records[name].configs.values()]
        configs += [_INDEFINITE, _SINGULAR, _VANISHES, _ENDLESS, _IRRATIONAL, _NOT_NEF]
        pivot = zariski._pivot
        handed: Counter[str] = Counter()

        def checking_pivot(direction, seed, v, tight):
            p, q = v.numerator, v.denominator
            values = [c0 * q + c1 * p for c0, c1 in zip(seed.c0, seed.c1)]
            if min(values) < 0:
                expected, kind = set(range(len(values))), "every curve"
            else:
                expected, kind = {j for j, value in enumerate(values) if not value}, "zero set"
            assert sorted(tight) == sorted(expected), f"{direction.config.name} at v = {v}"
            handed[kind] += 1
            handed["after 0"] += v > 0
            return pivot(direction, seed, v, tight)

        monkeypatch.setattr(zariski, "_pivot", checking_pivot)
        sweeps = 0
        for config in configs:
            for flag in config.curve_names:
                try:
                    parametric_decompose(config, flag)
                except DpDeltaError:
                    pass
                sweeps += 1
        assert sweeps == 372 + 14
        # -K meets a curve of every hand-built configuration negatively
        assert handed["every curve"] == 14
        assert handed["after 0"] > 0 and handed["zero set"] > sweeps


def _scan_rows(n_rows: list[tuple[int, int]], p_rows: list[tuple[int, int]]) -> zariski._Rows:
    """Synthetic rows for the end scan: N rows (x0, x1) and P.C rows (c0, c1)."""
    names = tuple(f"C{j}" for j in range(len(p_rows)))
    x0, x1 = [a for a, _ in n_rows], [b for _, b in n_rows]
    c0, c1 = [a for a, _ in p_rows], [b for _, b in p_rows]
    return zariski._Rows(names, (), x0, x1, 1, c0, c1, 1)


def _check_scan(rows: zariski._Rows, lo: Fraction) -> tuple[Fraction | None, list[int]]:
    """The end scan's root is the plain scan's, and its set the P.C rows that vanish there."""
    hi, tight = zariski._first_root_after(rows, lo)
    assert hi == first_root_after(rows, lo)
    assert len(set(tight)) == len(tight)
    pairs = list(enumerate(zip(rows.c0, rows.c1)))
    if hi is None:
        assert set(tight) == {j for j, (c0, c1) in pairs if not c0 and not c1}
    else:
        p, q = hi.numerator, hi.denominator
        assert set(tight) == {j for j, (c0, c1) in pairs if c0 * q + c1 * p == 0}
    return hi, sorted(tight)


@st.composite
def _scan_row(draw, lo: Fraction) -> tuple[int, int]:
    """A row that does not rise through 0 after lo; roots drawn from few values, so they tie."""
    k, m, scale = draw(st.integers(0, 6)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["falling", "rising", "zero", "constant"]))
    if kind == "zero":
        return 0, 0
    if kind == "constant":
        return scale * k, 0
    if kind == "rising" and Fraction(k, m) <= lo:
        return -scale * k, scale * m
    return scale * k, -scale * m  # falling, with its root k/m before or after lo


@st.composite
def _scans(draw) -> tuple[zariski._Rows, Fraction]:
    lo = Fraction(draw(st.integers(0, 6)), draw(st.integers(1, 3)))
    n_rows = draw(st.lists(_scan_row(lo), max_size=4))
    p_rows = draw(st.lists(_scan_row(lo), min_size=1, max_size=10))
    return _scan_rows(n_rows, p_rows), lo


class TestEndScan:
    """The chamber's end scan finds its end and the next pivot's tight set in one pass."""

    def test_n_root_and_p_dot_root_at_the_same_v(self):
        # N falls to 0 at 1/2, as do P.C1 and P.C2; P.C0 is identically 0
        rows = _scan_rows([(1, -2)], [(0, 0), (1, -2), (3, -2), (2, -4), (1, 1)])
        assert _check_scan(rows, F(0)) == (F(1, 2), [0, 1, 3])

    def test_an_earlier_n_root_leaves_only_the_zero_rows(self):
        rows = _scan_rows([(1, -4)], [(0, 0), (1, -2), (2, -4)])
        assert _check_scan(rows, F(0)) == (F(1, 4), [0])

    def test_a_better_root_starts_the_ties_over(self):
        # 3/2 ties twice before 1/2 beats it; 1/2 then ties once more
        rows = _scan_rows([], [(3, -2), (6, -4), (1, -2), (0, 0), (2, -4), (3, -1)])
        assert _check_scan(rows, F(0)) == (F(1, 2), [2, 3, 4])

    def test_off_support_zero_rows_are_tight(self):
        # support (C0,): its P.C row is 0, and so is C2's off the support;
        # C1 falls to 0 at the end, 2
        rows = _scan_rows([(1, 1)], [(0, 0), (2, -1), (0, 0), (0, 3)])
        rows = rows._replace(support=(0,))
        assert _check_scan(rows, F(1)) == (F(2), [0, 1, 2])

    def test_falling_rows_with_root_at_or_before_lo_are_skipped(self):
        # roots 1/2 and 1 are at or before lo = 1; 3/2 is the end, 1/2 comes after it
        rows = _scan_rows([(1, -1)], [(1, -2), (3, -2), (1, -1), (1, -2), (0, 0)])
        assert _check_scan(rows, F(1)) == (F(3, 2), [1, 4])

    def test_no_falling_row(self):
        rows = _scan_rows([(1, 1)], [(0, 0), (5, 0), (0, 2)])
        assert _check_scan(rows, F(0)) == (None, [0])

    @settings(max_examples=300, deadline=None)
    @given(_scans())
    def test_matches_the_plain_scan(self, scan):
        _check_scan(*scan)

    def test_chamber_end_hands_no_set_at_tau(self, nodal_decomp):
        # P.C = 1 - 2v ends the first chamber; C is curve 0
        first, last = nodal_decomp.chambers
        assert zariski._chamber_end(first.rows, first.p_sq, first.lo) == (F(1, 2), [0])
        assert zariski._chamber_end(last.rows, last.p_sq, last.lo) == (F(1), None)


class TestSerialization:
    def test_emitted_json(self, nodal_decomp, records):
        data = decomposition_to_json(nodal_decomp)
        assert data["config"] == "A1-nodal"
        assert data["flag"] == "E"
        assert data["tau"] == "1"
        stored = records["A1-nodal"].flag_specs[0].chambers
        assert data["chambers"] == stored["list"]

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
        chambers = 0
        for name in sorted(records):
            record = records[name]
            for config in record.configs.values():
                for flag in config.curve_names:
                    try:
                        decomp = parametric_decompose(config, flag)
                    except DpDeltaError as exc:
                        line = f"{type(exc).__name__}: {exc}"
                        outcomes[type(exc).__name__] += 1
                    else:
                        p_dot = [
                            {
                                c: ch.p_dot_at(j).to_strings()
                                for j, c in enumerate(config.curve_names)
                            }
                            for ch in decomp.chambers
                        ]
                        line = json.dumps(
                            [decomposition_to_json(decomp), p_dot], sort_keys=True
                        )
                        outcomes["finished"] += 1
                        # the flag never enters a support, and no N row falls
                        fi = config.index(flag)
                        for ch in decomp.chambers:
                            assert fi not in ch.rows.support, f"{config.name}/{flag}"
                            assert min(ch.rows.x1, default=0) >= 0, f"{config.name}/{flag}"
                        _assert_nested(decomp)
                        chambers += len(decomp.chambers)
                    digest.update(line.encode() + b"\n")
        assert outcomes == {"finished": 244, "IrrationalRoot": 128}
        assert chambers == 411
        golden = (Path(__file__).parent / "data" / "all_curve_sweeps.sha256").read_text()
        assert digest.hexdigest() == golden.strip()
