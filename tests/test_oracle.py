"""Independent decomposition oracles and the quadrature cross-check."""
from __future__ import annotations

import dataclasses
import gc
import itertools
import math
import subprocess
import sys
import weakref
import zlib
from fractions import Fraction
from pathlib import Path

import pytest

import dpdelta
from dpdelta import (
    CurveRecord,
    DivisorClass,
    IntQuadratic,
    NegativePart,
    PiecewisePoly,
    SurfaceConfig,
    brute_force_negative_part,
    load_case,
    negative_definite_subsets,
    parametric_decompose,
    quadrature_check,
    random_equivalence,
    sample_parameters,
    subset_table,
)
from dpdelta.catalog import decompose_flag
from dpdelta.errors import Ambiguous, NoSolution
from dpdelta.linalg import eliminate, solve
from dpdelta.oracle import (
    EquivalenceMismatch,
    EquivalenceReport,
    SubsetTable,
    _accepted_interval,
    _RowIndex,
    _TableRow,
)

F = Fraction

# len(SubsetTable(config, flag).rows) for every designated catalog flag, as
# the Fraction-scanning table builder produced them; keyed by case, then by
# "configuration:flag".
TABLE_ROWS = {
    "A1-cuspidal": {"base:Ebar": 3},
    "A1-nodal": {"base:E": 3},
    "A2-cuspidal": {"base:E1": 5, "blowup:EP": 9},
    "A2-nodal": {"base:E1": 5, "blowup:EP": 9},
    "A3": {"base:E2": 8, "base:E1": 9, "base:E3": 9},
    "A4": {
        "a:E2": 47, "b:E2": 62, "c:E2": 92, "d:E2": 92, "e:E2": 152, "f:E2": 152, "g:E2": 272,
        "a:E1": 17, "blowup:EP": 48,
    },
    "A5": {"e3a:E3": 35, "e3b:E3": 66, "e2a:E2": 39, "e2b:E2": 70, "e2c:E2": 132, "e2a:E1": 33},
    "A6": {"a:E3": 68, "b:E3": 133, "a:E2": 68, "b:E2": 131, "a:E1": 65},
    "A7-irreducible": {"base:E4": 131, "base:E3": 130, "base:E2": 130, "base:E1": 129},
    "A7-reducible": {
        "a:E4": 129, "b:E4": 258, "a:E3": 131, "a:E2": 131, "b:E2": 258, "a:E1": 129,
    },
    "A8": {"base:E4": 257, "base:E3": 257, "base:E2": 257, "base:E1": 257},
    "D4": {"base:E": 17, "base:E1": 16},
    "D5": {
        "a:E": 37, "a:E1": 47, "b:E1": 78, "c:E1": 140, "d:E1": 140, "e:E1": 264, "a:E3": 37,
        "a:E4": 32,
    },
    "D6": {"a:E": 66, "a:E1": 67, "b:E1": 130, "a:E3": 67, "a:E4": 65, "a:E5": 64},
    "D7": {
        "base:E": 131, "base:E1": 130, "base:E3": 130, "base:E4": 129, "base:E5": 129,
        "base:E6": 128,
    },
    "D8": {
        "base:E": 257, "base:E1": 257, "base:E2": 257, "base:E3": 257, "base:E4": 256,
        "base:E5": 257, "base:E6": 257, "base:E7": 256,
    },
    "E6": {"a:E3": 68, "a:E2": 68, "a:E1": 71, "b:E1": 134, "c:E1": 260, "a:E": 68},
    "E7": {
        "a:E3": 131, "a:E2": 131, "a:E1": 129, "a:E": 129, "a:E4": 131, "a:E5": 130, "a:E6":
        131, "b:E6": 258,
    },
    "E8": {
        "base:E3": 257, "base:E2": 257, "base:E1": 256, "base:E": 257, "base:E4": 257,
        "base:E5": 257, "base:E6": 257, "base:E7": 257,
    },
}


@pytest.fixture(scope="module")
def catalog_flags(records):
    """(label, configuration, flag, tau) for every designated catalog flag."""
    return [
        (
            f"{record.name}:{spec.config_id}:{spec.flag}",
            record.config(spec.config_id),
            spec.flag,
            decompose_flag(record, spec).tau,
        )
        for record in records.values()
        for spec in record.flag_specs
    ]


def _per_subset_rows(config: SurfaceConfig, flag: str) -> tuple[_TableRow, ...]:
    """The table rows as the per-subset builder made them, kept as a reference.

    Each subset gets its own augmented system [mu*gram_S | r0_S, r1_S],
    eliminated from scratch, and its residuals are summed column by column.
    """
    mu, gh = config.mu, config.int_gram
    n = len(gh)
    fi = config.index(flag)
    w0 = [sum(config.anti_k[i] * config.gram[i][j] for i in range(n)) for j in range(n)]
    rho = math.lcm(*((x * mu).denominator for x in w0))
    r0 = [int(x * mu * rho) for x in w0]
    r1 = [-rho * gh[fi][j] for j in range(n)]
    rows = []
    for subset in negative_definite_subsets(config):
        k = len(subset)
        aug = [[gh[i][j] for j in subset] + [r0[i], r1[i]] for i in subset]
        den = rho * eliminate(aug)
        sign = 1 if den > 0 else -1
        den *= sign
        x0 = tuple(sign * aug[i][k] for i in range(k))
        x1 = tuple(sign * aug[i][k + 1] for i in range(k))
        cols = [gh[s] for s in subset]
        residuals = (
            (
                den * r0[j] - rho * sum(x0[t] * cols[t][j] for t in range(k)),
                den * r1[j] - rho * sum(x1[t] * cols[t][j] for t in range(k)),
            )
            for j in range(n)
            if j not in subset
        )
        interval = _accepted_interval(itertools.chain(zip(x0, x1), residuals))
        if interval is not None:
            rows.append(_TableRow(subset, *interval, x0, x1, den))
    return tuple(rows)


def _semidefinite_pair() -> SurfaceConfig:
    """Two (-2)-curves meeting twice (det = 0) and a disjoint curve of square 0."""
    return SurfaceConfig(
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


def _fraction_brute_force(config: SurfaceConfig, d: DivisorClass) -> NegativePart:
    """The Fraction brute force the integer one replaced, kept as its reference."""
    names = config.curve_names
    n = len(names)
    d_dot = [
        sum(d.coeffs[i] * config.gram[i][j] for i in range(n)) for j in range(n)
    ]
    accepted: list[tuple[Fraction, ...]] = []
    for subset in negative_definite_subsets(config):
        # scaling a row of the augmented system by an integer keeps its solution
        system = []
        for i in subset:
            row = [config.gram[i][j] for j in subset] + [d_dot[i]]
            scale = math.lcm(*(x.denominator for x in row))
            system.append([x.numerator * (scale // x.denominator) for x in row])
        det, (col,) = solve([row[:-1] for row in system], [[row[-1] for row in system]])
        coeffs = [Fraction(x, det) for x in col]
        if any(c < 0 for c in coeffs):
            continue
        ok = True
        for j in range(n):
            if j in subset:
                continue
            resid = d_dot[j] - sum(
                coeffs[t] * config.gram[subset[t]][j] for t in range(len(subset))
            )
            if resid < 0:
                ok = False
                break
        if ok:
            full = [Fraction(0)] * n
            for c, idx in zip(coeffs, subset):
                full[idx] = c
            accepted.append(tuple(full))
    if not accepted:
        raise NoSolution(f"no accepted support for {d.coeffs} on {config.name}")
    if len(set(accepted)) > 1:
        raise Ambiguous(
            f"{len(set(accepted))} distinct negative parts for {d.coeffs} on {config.name}"
        )
    full = accepted[0]
    coeffs = {names[i]: c for i, c in enumerate(full) if c != 0}
    return NegativePart(tuple(sorted(coeffs)), coeffs)


def _outcome(fn, config, d):
    """The negative part, or the type and message of the oracle error raised."""
    try:
        return fn(config, d)
    except (Ambiguous, NoSolution) as exc:
        return type(exc), str(exc)


def _gate_samples(label, tau):
    """The 100 parameters the acceptance gate samples for one flag."""
    return sample_parameters(tau, 100, zlib.crc32(label.encode()))


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
        # only the two singletons are definite
        assert set(negative_definite_subsets(_semidefinite_pair())) == {(), (0,), (1,)}

    def test_each_prefix_is_the_last_subset_of_its_length(self, catalog_flags):
        """The preorder the table and brute-force walks extend along."""
        configs = {id(cfg): cfg for _, cfg, _, _ in catalog_flags}
        assert len(configs) == 42
        for cfg in [*configs.values(), _semidefinite_pair()]:
            subsets = negative_definite_subsets(cfg)
            assert subsets[0] == ()
            last: dict[int, tuple[int, ...]] = {}
            for subset in subsets:
                if subset:
                    assert last[len(subset) - 1] == subset[:-1], f"{cfg.name}: {subset}"
                    assert list(subset) == sorted(set(subset))
                last[len(subset)] = subset


class TestSubsetTable:
    def test_matches_engine(self, a1_nodal):
        decomp = parametric_decompose(a1_nodal, "E")
        table = subset_table(a1_nodal, "E")
        for v in ("1/10", "1/2", "2/3", "99/100"):
            assert table.negative_part(v) == decomp.negative_at(v)

    def test_cached_per_pair(self, a1_nodal):
        assert subset_table(a1_nodal, "E") is subset_table(a1_nodal, "E")
        assert subset_table(a1_nodal, "E") is not subset_table(a1_nodal, "C")

    def test_cache_lets_the_configuration_go(self):
        cfg = load_case("A1-nodal").config("base")
        subset_table(cfg, "E")
        gone = weakref.ref(cfg)
        del cfg
        gc.collect()
        assert gone() is None

    def test_no_solution_beyond_threshold(self, a1_nodal):
        table = subset_table(a1_nodal, "E")
        with pytest.raises(NoSolution, match="no negative-definite support accepts v = 2"):
            table.negative_part(2)

    def test_row_counts_match_the_fraction_builder(self, catalog_flags):
        counts = {}
        for label, cfg, flag, _ in catalog_flags:
            case, key = label.split(":", 1)
            counts.setdefault(case, {})[key] = len(subset_table(cfg, flag).rows)
        assert counts == TABLE_ROWS
        assert sum(sum(per.values()) for per in counts.values()) == 12410

    def test_rows_match_the_per_subset_builder(self, catalog_flags):
        total = 0
        for label, cfg, flag, _ in catalog_flags:
            rows = subset_table(cfg, flag).rows
            assert rows == _per_subset_rows(cfg, flag), label
            total += len(rows)
        assert total == 12410

    def test_index_matches_linear_scan_across_catalog(self, catalog_flags):
        for label, cfg, flag, tau in catalog_flags:
            table = subset_table(cfg, flag)
            ends = sorted({r.lo for r in table.rows} | {r.hi for r in table.rows if r.hi is not None})
            gaps = [(a + b) / 2 for a, b in zip(ends, ends[1:])]
            points = ends + gaps + [F(-1, 3), ends[-1] + 1] + _gate_samples(label, tau)
            for v in points:
                scan = tuple(r for r in table.rows if r.lo <= v and (r.hi is None or v <= r.hi))
                assert table.index.covering(v) == scan, f"{label} at v = {v}"
        assert len(catalog_flags) == 95

    def test_index_slots(self):
        rows = [
            _TableRow((0,), F(0), F(0), (0,), (1,), 1),
            _TableRow((1,), F(0), F(1, 2), (0,), (1,), 1),
            _TableRow((2,), F(1, 2), F(1), (0,), (1,), 1),
            _TableRow((3,), F(1), None, (0,), (1,), 1),
        ]
        index = _RowIndex(rows)
        assert index.ends == [F(0), F(1, 2), F(1)]
        expected = {
            F(-1): (), F(0): (0, 1), F(1, 4): (1,), F(1, 2): (1, 2),
            F(3, 4): (2,), F(1): (2, 3), F(7): (3,),
        }
        for v, subsets in expected.items():
            assert tuple(r.subset[0] for r in index.covering(v)) == subsets, v

    def test_overlapping_row_is_ambiguous(self, a1_nodal):
        table = SubsetTable(a1_nodal, "E")
        v = F(3, 4)
        assert table.negative_part(v).coeffs == {"C": F(1, 2)}
        (row,) = table.index.covering(v)
        other = dataclasses.replace(row, num0=(row.num0[0] + row.den,))
        table.rows += (other,)
        table.index = _RowIndex(table.rows)
        with pytest.raises(Ambiguous, match="2 distinct negative parts at v = 3/4 for flag E"):
            table.negative_part(v)
        assert table.negative_part(F(1, 4)).coeffs == {}


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

    def test_matches_fraction_reference_across_catalog(self, catalog_flags):
        """Every configuration at 5 values, three with denominators near 10^4.

        The values cycle through the configuration's designated flags: three
        inside (0, tau), tau itself, where P is orthogonal to some curve off
        the support, and one just past tau, where no support is accepted.
        """
        by_config: dict = {}
        for _, cfg, flag, tau in catalog_flags:
            by_config.setdefault(cfg, []).append((flag, tau))
        outcomes = set()
        for cfg, flags in by_config.items():
            for i in range(5):
                flag, tau = flags[i % len(flags)]
                q = 10_000 - 7 * i
                v = (
                    F(math.floor(tau * q * (2 * i + 1) / 6), q) if i < 3
                    else tau if i == 3
                    else tau + F(1, q)
                )
                d = cfg.anti_k_divisor - cfg.basis_vector(flag).scale(v)
                got = _outcome(brute_force_negative_part, cfg, d)
                assert got == _outcome(_fraction_brute_force, cfg, d), f"{cfg.name}/{flag} at {v}"
                outcomes.add(type(got) if isinstance(got, NegativePart) else got[0])
        assert len(by_config) == 42
        assert "A1-cuspidal" in {cfg.name for cfg in by_config}
        assert outcomes == {NegativePart, NoSolution}

    def test_ambiguous(self):
        # two (-1)-curves meeting with multiplicity -2 (an indefinite pair):
        # at d.X0 = d.X1 = -1 each singleton is accepted with its own vector
        cfg = SurfaceConfig(
            name="crossed",
            norm=1,
            curves=[CurveRecord("X0", -1, "minus_one"), CurveRecord("X1", -1, "minus_one")],
            gram=[[-1, -2], [-2, -1]],
            anti_k=[0, 0],
        )
        d = DivisorClass([F(1, 3), F(1, 3)])
        got = _outcome(brute_force_negative_part, cfg, d)
        assert got[0] is Ambiguous and got[1].startswith("2 distinct negative parts")
        assert got == _outcome(_fraction_brute_force, cfg, d)

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

    def test_zero_piece(self):
        pp = PiecewisePoly([0, 1], [IntQuadratic(0, 0, 0, 1)])
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

    def test_rejects_a_foreign_decomposition(self, a1_nodal, a2_nodal):
        decomp = parametric_decompose(a1_nodal, "E")
        with pytest.raises(ValueError, match="flag E passed for flag E1 on config A2-nodal"):
            random_equivalence(a2_nodal.config("base"), "E1", trials=5, decomp=decomp)
        copy = a1_nodal.with_points(a1_nodal.points)
        with pytest.raises(ValueError, match="passed for another config A1-nodal"):
            random_equivalence(copy, "E", trials=5, decomp=decomp)

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
