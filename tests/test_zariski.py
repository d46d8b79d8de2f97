"""Parametric Zariski decompositions: chambers, thresholds, serialization."""
from __future__ import annotations

import copy
import hashlib
import json
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
    decomposition_from_json,
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

        by_hand = ref(first.p_sq).integrate(0, F(3, 4)) + ref(second.p_sq).integrate(F(3, 4), 1)
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
        assert ref(p_sq.pieces[-1].poly())(1) == 0

    def test_a_sweep_builds_no_poly(self, records, monkeypatch):
        # a chamber stores integer rows only; S and S(W;O) integrate them,
        # the oracle's engine side reads them, quadrature and the threefold
        # multipliers compute on integers, and a Poly view is built on its
        # first read, once
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
        for name in ("A1-nodal", "A2-nodal", "A3", "D4"):
            record = records[name]
            for spec in record.flag_specs:
                flag_cfg = record.config(spec.config_id)
                swept = decompose_flag(record, spec)
                assert random_equivalence(flag_cfg, spec.flag, trials=20, decomp=swept).ok
                assert quadrature_check(swept.p_sq_piecewise()).ok
                for point in flag_cfg.points_on(spec.flag):
                    assert quadrature_check(local_h(swept, point)).ok
        assert (multiplier_family_1_11(), multiplier_family_2_1()) == (F(3, 2), F(15, 16))
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
                    assert set(ch.p_dot) == set(names)
                    for v in (ch.lo, (ch.lo + ch.hi) / 2, ch.hi):
                        divisor = [a - v * (i == fi) for i, a in enumerate(config.anti_k)]
                        for name, n in ch.n_coeffs.items():
                            divisor[config.index(name)] -= ref(n)(v)
                        for j, name in enumerate(names):
                            expected = sum(
                                (c * config.gram[i][j] for i, c in enumerate(divisor)), F(0)
                            )
                            assert ref(ch.p_dot[name])(v) == expected, (
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


class TestPivot:
    """The pivot adds curves only from the tight set, as a scan of every curve would."""

    def test_not_nef_at_zero_scans_every_curve(self):
        decomp = parametric_decompose(_NOT_NEF, "F")
        assert [(ch.lo, ch.hi, ch.support) for ch in decomp.chambers] == [
            (0, 3, ("C1", "C2"))
        ]
        assert decomp.chambers[0].n_coeffs == {"C1": Poly([F(5, 3)]), "C2": Poly([F(1, 3)])}
        assert decomp.tau == 3

    def test_same_iterates_as_the_full_scan(self, monkeypatch, records):
        """Every curve sweep of the catalog solves the same systems in the same order.

        Each sweep's outcome (its chambers' ends and integer rows, or its
        error text) and the systems `zariski.solve` is given must match the
        reference pivot's, which tests every curve for the add set.
        """
        configs = [config for name in sorted(records) for config in records[name].configs.values()]
        configs += [_INDEFINITE, _SINGULAR, _VANISHES, _ENDLESS, _IRRATIONAL, _NOT_NEF]
        solved: list[tuple] = []
        solve = zariski.solve

        def recording_solve(matrix, rhs):
            solved.append((matrix, rhs))
            return solve(matrix, rhs)

        monkeypatch.setattr(zariski, "solve", recording_solve)

        def sweeps() -> list[tuple]:
            out = []
            for config in configs:
                for flag in config.curve_names:
                    solved.clear()
                    try:
                        decomp = parametric_decompose(config, flag)
                    except DpDeltaError as exc:
                        outcome: object = f"{type(exc).__name__}: {exc}"
                    else:
                        outcome = [(ch.lo, ch.hi, ch.rows, ch.p_sq_rows) for ch in decomp.chambers]
                    out.append((config.name, flag, outcome, list(solved)))
            return out

        tight = sweeps()
        monkeypatch.setattr(zariski, "_pivot", full_scan_pivot)
        full = sweeps()
        assert len(tight) == 372 + 14
        assert sum(len(sweep[3]) for sweep in tight) > len(tight)
        for mine, reference in zip(tight, full):
            assert mine == reference, f"{mine[0]}/{mine[1]}"
        finished = sum(isinstance(outcome, list) for _, _, outcome, _ in tight)
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
        assert zariski._chamber_end(first.rows, first.p_sq_rows, first.lo) == (F(1, 2), [0])
        assert zariski._chamber_end(last.rows, last.p_sq_rows, last.lo) == (F(1), None)


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
            for config in record.configs.values():
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

    def test_tau_where_p_sq_does_not_vanish_is_caught(self, a1_nodal, nodal_decomp):
        # the chambers still cover [0, tau]; P^2 = 2 - 4v + 2v^2 is 1/8 at
        # v = 3/4, and on the first chamber alone P^2 = 1 - 2v^2 is -1 at 1
        data = decomposition_to_json(nodal_decomp)
        late = copy.deepcopy(data)
        late["tau"] = late["chambers"][1]["hi"] = "3/4"
        _refused(a1_nodal, late, r"P\^2 does not vanish at the stored tau; .*, chamber 1$")
        short = copy.deepcopy(data)
        short["chambers"] = short["chambers"][:1]
        short["chambers"][0]["hi"] = "1"
        _refused(a1_nodal, short, r"P\^2 does not vanish at the stored tau; .*, chamber 0$")

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

    @pytest.mark.parametrize(
        "chamber, key, text, message",
        [
            (0, "p_dot", "02", r"chambers\[0\]\.p_dot must be a list, got '02'"),
            (1, "support", "C", r"chambers\[1\]\.support must be a list, got 'C'"),
        ],
        ids=["p_dot", "support"],
    )
    def test_string_for_a_list_is_caught(
        self, a1_nodal, nodal_decomp, chamber, key, text, message
    ):
        """A string would read as the list of its characters, which here is the stored list."""
        bad = copy.deepcopy(decomposition_to_json(nodal_decomp))
        assert bad["chambers"][chamber][key] == list(text)
        bad["chambers"][chamber][key] = text
        _refused(a1_nodal, bad, f"^config A1-nodal, flag E: {message}$")

    def test_chamber_without_lo_is_caught(self, a1_nodal, nodal_decomp):
        bad = copy.deepcopy(decomposition_to_json(nodal_decomp))
        del bad["chambers"][0]["lo"]
        _refused(a1_nodal, bad, r"^config A1-nodal, flag E: chambers\[0\]\.lo is missing$")

    def test_string_for_the_coefficients_is_caught(self, a1_nodal, nodal_decomp):
        """The string "C" has the support's curve names as its set of characters."""
        bad = copy.deepcopy(decomposition_to_json(nodal_decomp))
        assert bad["chambers"][1]["support"] == ["C"]
        bad["chambers"][1]["n_coeffs"] = "C"
        message = r"chambers\[1\]\.n_coeffs must be an object, got 'C'"
        _refused(a1_nodal, bad, f"^config A1-nodal, flag E: {message}$")

    def test_string_for_a_chamber_is_caught(self, a1_nodal, nodal_decomp):
        bad = copy.deepcopy(decomposition_to_json(nodal_decomp))
        bad["chambers"][1] = "C"
        message = r"chambers\[1\] must be an object, got 'C'"
        _refused(a1_nodal, bad, f"^config A1-nodal, flag E: {message}$")

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

    @pytest.mark.parametrize("key", ["flag", "tau", "chambers"])
    def test_missing_top_level_key_is_caught(self, a1_nodal, nodal_decomp, key):
        bad = copy.deepcopy(decomposition_to_json(nodal_decomp))
        del bad[key]
        where = "config A1-nodal" if key == "flag" else "config A1-nodal, flag E"
        with pytest.raises(SchemaError, match=f"^{where}: {key} is missing$"):
            decomposition_from_json(a1_nodal, bad)

    @pytest.mark.parametrize(
        "data, shown", [([], r"\[\]"), ("E", "'E'")], ids=["list", "string"]
    )
    def test_top_level_that_is_not_an_object_is_caught(self, a1_nodal, data, shown):
        message = f"^config A1-nodal: decomposition must be an object, got {shown}$"
        with pytest.raises(SchemaError, match=message):
            decomposition_from_json(a1_nodal, data)

    @pytest.mark.parametrize("flag, shown", [(3, "3"), (None, "None")], ids=["number", "null"])
    def test_flag_that_is_not_a_string_is_caught(self, a1_nodal, nodal_decomp, flag, shown):
        """A number or null flag is refused, not read as the curve named '3' or 'None'."""
        bad = copy.deepcopy(decomposition_to_json(nodal_decomp))
        bad["flag"] = flag
        message = f"^config A1-nodal: flag must be a string, got {shown}$"
        with pytest.raises(SchemaError, match=message):
            decomposition_from_json(a1_nodal, bad)

    def test_same_decomposition_distinguishes(self, nodal_decomp, records, same_decomposition):
        other_cfg = records["A2-nodal"].config("base")
        other = parametric_decompose(other_cfg, "E1")
        assert same_decomposition(nodal_decomp, nodal_decomp)
        assert not same_decomposition(nodal_decomp, other)
