"""Independent decomposition oracles and the quadrature cross-check."""
from __future__ import annotations

import dataclasses
import itertools
import math
import random
import subprocess
import sys
import zlib
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import pytest
from hypothesis import given, settings, strategies as st

import dpdelta
from dpdelta import (
    PiecewisePoly,
    Poly,
    SurfaceConfig,
    brute_force_negative_part,
    parametric_decompose,
    quadrature_check,
    random_equivalence,
    sample_parameters,
)
from dpdelta import oracle
from dpdelta.catalog import decompose_flag
from dpdelta.errors import Ambiguous, DimensionMismatch, NoSolution
from dpdelta.linalg import solve
from dpdelta.oracle import (
    EquivalenceMismatch,
    EquivalenceReport,
    SubsetTable,
    _accepted_interval,
    _TableRow,
)
from dpdelta.rationals import affine_vector, format_rational
from dpdelta.zariski import Chamber, Decomposition
from refsubsets import accepted_subsets, negative_definite_subsets

F = Fraction

# len(SubsetTable(config, flag).rows) for every designated catalog flag; keyed
# by case, then by "configuration:flag". No row is the single point {0}: such
# a subset repeats N(0), which the first chamber's support row gives.
TABLE_ROWS = {
    "A1-cuspidal": {"base:Ebar": 2},
    "A1-nodal": {"base:E": 2},
    "A2-cuspidal": {"base:E1": 2, "blowup:EP": 2},
    "A2-nodal": {"base:E1": 2, "blowup:EP": 2},
    "A3": {"base:E2": 1, "base:E1": 2, "base:E3": 2},
    "A4": {
        "a:E2": 32, "b:E2": 32, "c:E2": 32, "d:E2": 32, "e:E2": 32, "f:E2": 32, "g:E2": 32,
        "a:E1": 2, "blowup:EP": 17,
    },
    "A5": {"e3a:E3": 4, "e3b:E3": 4, "e2a:E2": 8, "e2b:E2": 8, "e2c:E2": 8, "e2a:E1": 2},
    "A6": {"a:E3": 5, "b:E3": 7, "a:E2": 5, "b:E2": 5, "a:E1": 2},
    "A7-irreducible": {"base:E4": 4, "base:E3": 3, "base:E2": 3, "base:E1": 2},
    "A7-reducible": {"a:E4": 2, "b:E4": 4, "a:E3": 4, "a:E2": 4, "b:E2": 4, "a:E1": 2},
    "A8": {"base:E4": 2, "base:E3": 2, "base:E2": 2, "base:E1": 2},
    "D4": {"base:E": 2, "base:E1": 1},
    "D5": {
        "a:E": 6, "a:E1": 16, "b:E1": 16, "c:E1": 16, "d:E1": 16, "e:E1": 16, "a:E3": 6,
        "a:E4": 1,
    },
    "D6": {"a:E": 3, "a:E1": 4, "b:E1": 4, "a:E3": 4, "a:E4": 2, "a:E5": 1},
    "D7": {"base:E": 4, "base:E1": 3, "base:E3": 3, "base:E4": 2, "base:E5": 2, "base:E6": 1},
    "D8": {
        "base:E": 2, "base:E1": 2, "base:E2": 2, "base:E3": 2, "base:E4": 1, "base:E5": 2,
        "base:E6": 2, "base:E7": 1,
    },
    "E6": {"a:E3": 5, "a:E2": 5, "a:E1": 8, "b:E1": 8, "c:E1": 8, "a:E": 5},
    "E7": {
        "a:E3": 4, "a:E2": 4, "a:E1": 2, "a:E": 2, "a:E4": 4, "a:E5": 3, "a:E6": 4, "b:E6": 4,
    },
    "E8": {
        "base:E3": 2, "base:E2": 2, "base:E1": 1, "base:E": 2, "base:E4": 2, "base:E5": 2,
        "base:E6": 2, "base:E7": 2,
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

    Each subset gets its own system mu*gram_S x = (r0_S, r1_S), solved from
    scratch, and its residuals are summed column by column.
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
        matrix = [[gh[i][j] for j in subset] for i in subset]
        det, xs = solve(matrix, [[r0[i] for i in subset], [r1[i] for i in subset]])
        den = rho * det
        x0, x1 = map(tuple, xs)
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
        curve_names=["X0", "X1", "F"],
        gram=[[-2, 2, 0], [2, -2, 0], [0, 0, 0]],
        anti_k=[0, 0, 0],
    )


def _divisor(config: SurfaceConfig, flag: str, v: Fraction) -> list[Fraction]:
    """-K - v*flag as a list of coefficients in curve order."""
    return [a - v * (name == flag) for name, a in zip(config.curve_names, config.anti_k)]


def _fraction_brute_force(config: SurfaceConfig, d: Sequence[Fraction]) -> dict[str, Fraction]:
    """The Fraction brute force the integer one replaced, kept as its reference.

    Its messages print d as a tuple of Fractions, as the integer one does."""
    names = config.curve_names
    n = len(names)
    d = tuple(map(Fraction, d))
    d_dot = [sum(d[i] * config.gram[i][j] for i in range(n)) for j in range(n)]
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
        raise NoSolution(f"no accepted support for {d} on {config.name}")
    if len(set(accepted)) > 1:
        raise Ambiguous(
            f"{len(set(accepted))} distinct negative parts for {d} on {config.name}"
        )
    return {names[i]: c for i, c in enumerate(accepted[0]) if c != 0}


def _nef_pair() -> SurfaceConfig:
    """Two curves of squares 0 and 1: no curve is negative, so () is the only definite subset."""
    return SurfaceConfig(
        name="nef",
        norm=1,
        curve_names=["F", "H"],
        gram=[[0, 1], [1, 1]],
        anti_k=[1, 1],
    )


@st.composite
def _small_configs(draw, low: int = -1) -> SurfaceConfig:
    """3 to 6 curves with a small symmetric integer Gram matrix and rational anti_k.

    Entries off the diagonal are drawn from [low, 2]: with low = 0 the walk
    applies its bound, and a negative one turns it off.
    """
    n = draw(st.integers(3, 6))
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = draw(st.integers(-4, 1))
        for j in range(i):
            gram[i][j] = gram[j][i] = draw(st.integers(low, 2))
    anti_k = draw(st.lists(
        st.fractions(min_value=-1, max_value=2, max_denominator=3), min_size=n, max_size=n
    ))
    return SurfaceConfig(
        name="random",
        norm=1,
        curve_names=[f"X{i}" for i in range(n)],
        gram=gram,
        anti_k=anti_k,
    )


def _outcome(fn, config, d):
    """The negative part, or the type and message of the oracle error raised."""
    try:
        return fn(config, d)
    except (Ambiguous, NoSolution) as exc:
        return type(exc), str(exc)


def _walk(config: SurfaceConfig) -> tuple[tuple[int, ...], ...]:
    """The nonempty subsets the table and brute-force walk visits with its bound off, in order.

    Both right-hand sides are 0, so every residual is 0 and the bound never cuts.
    """
    gh = config.int_gram
    zero = [0] * len(gh)
    walk = oracle._subset_states(gh, oracle._root_columns(gh, (zero, zero)))
    return tuple(subset for subset, *_ in walk)


def _flag_rhs(config: SurfaceConfig, flag: str) -> list[tuple[Fraction, Fraction]]:
    """(c0, c1) per curve C with (-K - v*F).C = c0 + c1*v for the flag F."""
    fi = config.index(flag)
    return [(c0, -row[fi]) for c0, row in zip(config.anti_k_dots, config.gram)]


def _divisor_rhs(config: SurfaceConfig, d: Sequence[Fraction]) -> list[tuple[Fraction, Fraction]]:
    """(d.C, 0) per curve C: the right-hand side at one divisor, constant in v."""
    return [(sum(a * x for a, x in zip(d, row)), F(0)) for row in config.gram]


def _record_walk(monkeypatch) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Lists that collect, from now on, the subsets the walk visits and the
    subsets whose state it pivots, in order."""
    visited: list[tuple[int, ...]] = []
    pivoted: list[tuple[int, ...]] = []
    read_off: dict = {}  # (id of a state's columns, j) -> the subset last read off them
    walk, pivot = oracle._subset_states, oracle.extend

    def recording_walk(*args):
        for item in walk(*args):
            subset, cols, _, j = item
            visited.append(subset)
            read_off[id(cols), j] = subset
            yield item

    def recording_pivot(state, j):
        pivoted.append(read_off[id(state[0]), j])
        return pivot(state, j)

    monkeypatch.setattr(oracle, "_subset_states", recording_walk)
    monkeypatch.setattr(oracle, "extend", recording_pivot)
    return visited, pivoted


def _check_walk(
    cfg: SurfaceConfig,
    visited: Sequence[tuple[int, ...]],
    pivoted: Sequence[tuple[int, ...]],
    rhs: Sequence[tuple[Fraction, Fraction]] | None = None,
) -> None:
    """The walk's soundness and its pivots, from what `_record_walk` saw.

    It visits reference subsets only, in their order, and with `rhs` every
    nonempty subset that `accepted_subsets` accepts. A state is pivoted
    once for each visited subset that another visited subset extends, in
    the order they are first extended, and for no other subset.
    """
    reference = iter(negative_definite_subsets(cfg)[1:])
    assert all(subset in reference for subset in visited)
    if rhs is not None:
        assert set(accepted_subsets(cfg, rhs)) - {()} <= set(visited)
    assert pivoted == list(dict.fromkeys(s[:-1] for s in visited if len(s) > 1))


def _evaluating_equivalence(
    config: SurfaceConfig, flag: str, trials: int, seed: int, decomp: Decomposition
) -> EquivalenceReport:
    """The reference for `random_equivalence`: every trial evaluates both sides at v.

    The table is built through `oracle.SubsetTable`, so a test that patches
    it patches this loop too.
    """
    table = oracle.SubsetTable(config, flag)
    mismatches = []
    ambiguous = 0
    for i, v in enumerate(sample_parameters(decomp.tau, trials, seed)):
        engine = decomp.negative_at(v)
        try:
            found = table.negative_part(v)
        except Ambiguous:
            ambiguous += 1
            continue
        if engine != found:
            mismatches.append(EquivalenceMismatch(v, engine, found))
            continue
        if i == 0:
            reference = brute_force_negative_part(config, _divisor(config, flag, v))
            if reference != found:
                mismatches.append(EquivalenceMismatch(v, reference, found))
    return EquivalenceReport(
        config.name, flag, trials, seed, decomp.tau, tuple(mismatches), ambiguous
    )


def _gate_samples(label, tau):
    """The 100 parameters the acceptance gate samples for one flag."""
    return sample_parameters(tau, 100, zlib.crc32(label.encode()))


class TestNegativeDefiniteSubsets:
    """The walk finds the subsets the reference enumeration lists, in its order."""

    def test_small_config(self, a1_nodal):
        # index 0 is C, index 1 is E; together they span a hyperbolic plane
        assert _walk(a1_nodal) == ((0,), (1,))

    def test_includes_chains(self, a2_nodal):
        subsets = set(_walk(a2_nodal.config("base")))
        assert (1, 2) in subsets  # the two (-2)-curves
        assert (0, 1, 2) not in subsets  # the full Gram matrix is indefinite

    def test_fractional_gram(self, a1_cuspidal):
        subsets = set(_walk(a1_cuspidal))
        assert (0,) in subsets and (1,) in subsets
        assert (0, 1) not in subsets  # det = 3/4 - 1 < 0

    def test_semidefinite_pair(self):
        # only the two singletons are definite
        assert _walk(_semidefinite_pair()) == ((0,), (1,))

    def test_walk_matches_the_reference(self, catalog_flags):
        configs = {id(cfg): cfg for _, cfg, _, _ in catalog_flags}
        assert len(configs) == 42
        total = 0
        for cfg in [*configs.values(), _semidefinite_pair(), _nef_pair()]:
            subsets = negative_definite_subsets(cfg)
            assert ((),) + _walk(cfg) == subsets, cfg.name
            total += len(subsets)
        assert total == 27_005 + 3 + 1  # the catalog's, then the two edge configurations'

    @settings(max_examples=150, deadline=None)
    @given(cfg=_small_configs())
    def test_walk_matches_the_reference_on_random_gram_matrices(self, cfg):
        assert ((),) + _walk(cfg) == negative_definite_subsets(cfg)

    def test_bounded_walk_visits_every_accepted_subset(self, catalog_flags, monkeypatch):
        """Every flag's table, and brute force at the flag's first gate sample,
        visit each subset the per-subset reference accepts at some v > 0 (at
        the divisor, for brute force)."""
        visited, pivoted = _record_walk(monkeypatch)
        for label, cfg, flag, tau in catalog_flags:
            visited.clear()
            pivoted.clear()
            SubsetTable(cfg, flag)
            _check_walk(cfg, visited, pivoted, _flag_rhs(cfg, flag))
            d = _divisor(cfg, flag, _gate_samples(label, tau)[0])
            visited.clear()
            pivoted.clear()
            brute_force_negative_part(cfg, d)
            _check_walk(cfg, visited, pivoted, _divisor_rhs(cfg, d))
        assert len(catalog_flags) == 95

    @settings(max_examples=150, deadline=None)
    @given(
        cfg=_small_configs(low=0),
        fi=st.integers(0, 5),
        v=st.fractions(min_value=0, max_value=3, max_denominator=12),
    )
    def test_bounded_walk_visits_every_accepted_subset_on_random_gram_matrices(
        self, cfg, fi, v
    ):
        flag = cfg.curve_names[fi % len(cfg.curve_names)]
        with pytest.MonkeyPatch.context() as monkeypatch:
            visited, pivoted = _record_walk(monkeypatch)
            SubsetTable(cfg, flag)
            _check_walk(cfg, visited, pivoted, _flag_rhs(cfg, flag))
            d = _divisor(cfg, flag, v)
            visited.clear()
            pivoted.clear()
            _outcome(brute_force_negative_part, cfg, d)
            _check_walk(cfg, visited, pivoted, _divisor_rhs(cfg, d))


class TestSubsetTable:
    def test_matches_engine(self, a1_nodal):
        decomp = parametric_decompose(a1_nodal, "E")
        table = SubsetTable(a1_nodal, "E")
        for v in ("1/10", "1/2", "2/3", "99/100"):
            assert table.negative_part(v) == decomp.negative_at(v)

    def test_no_solution_beyond_threshold(self, a1_nodal):
        table = SubsetTable(a1_nodal, "E")
        with pytest.raises(NoSolution, match="no negative-definite support accepts v = 2"):
            table.negative_part(2)

    def test_row_counts_match_the_fraction_builder(self, catalog_flags):
        counts = {}
        for label, cfg, flag, _ in catalog_flags:
            case, key = label.split(":", 1)
            counts.setdefault(case, {})[key] = len(SubsetTable(cfg, flag).rows)
        assert counts == TABLE_ROWS
        assert sum(sum(per.values()) for per in counts.values()) == 582

    def test_rows_match_the_per_subset_builder(self, catalog_flags):
        total = 0
        for label, cfg, flag, _ in catalog_flags:
            rows = SubsetTable(cfg, flag).rows
            assert rows == _per_subset_rows(cfg, flag), label
            total += len(rows)
        assert total == 582

    def test_lookup_matches_the_sweep_at_every_row_end(self, catalog_flags):
        """v = 0, every row end and gap midpoint in [0, tau], and the gate's samples.

        Row ends are the exact breakpoints where the single-point rows at
        v > 0 live, which random samples rarely hit.
        """
        for label, cfg, flag, tau in catalog_flags:
            table = SubsetTable(cfg, flag)
            decomp = parametric_decompose(cfg, flag)
            ends = sorted(
                {r.lo for r in table.rows} | {r.hi for r in table.rows if r.hi is not None}
            )
            ends = [e for e in ends if e <= tau]
            gaps = [(a + b) / 2 for a, b in zip(ends, ends[1:])]
            for v in [F(0), *ends, *gaps, *_gate_samples(label, tau)]:
                got = table.negative_part(v)
                assert got == decomp.negative_at(v), f"{label} at v = {v}"
        assert len(catalog_flags) == 95

    def test_accepted_interval(self):
        cases = {
            ((0, -1),): None,  # only v = 0 is left
            ((-1, -1),): None,  # empty
            ((1, -2),): (F(0), F(1, 2)),
            ((0, 1),): (F(0), None),
        }
        for conds, expected in cases.items():
            assert _accepted_interval(conds) == expected, conds

    def test_overlapping_row_is_ambiguous(self, a1_nodal):
        table = SubsetTable(a1_nodal, "E")
        v = F(3, 4)
        assert table.negative_part(v) == {"C": F(1, 2)}
        (row,) = [r for r in table.rows if r.lo <= v and (r.hi is None or v <= r.hi)]
        other = dataclasses.replace(row, num0=(row.num0[0] + row.den,))
        table.rows += (other,)
        with pytest.raises(Ambiguous, match="2 distinct negative parts at v = 3/4 for flag E"):
            table.negative_part(v)
        assert table.negative_part(F(1, 4)) == {}


class TestBruteForce:
    def test_matches_engine(self, a1_nodal):
        decomp = parametric_decompose(a1_nodal, "E")
        for v in (F(1, 7), F(1, 5), F(1, 2), F(4, 5), F(9, 10)):
            d = _divisor(a1_nodal, "E", v)
            assert brute_force_negative_part(a1_nodal, d) == decomp.negative_at(v)

    def test_blown_up_config(self, a2_nodal):
        cfg = a2_nodal.config("blowup")
        decomp = parametric_decompose(cfg, "EP")
        v = F(7, 4)
        assert brute_force_negative_part(cfg, _divisor(cfg, "EP", v)) == decomp.negative_at(v)

    def test_no_solution(self, a1_nodal):
        with pytest.raises(NoSolution):
            brute_force_negative_part(a1_nodal, _divisor(a1_nodal, "E", F(2)))

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
                d = _divisor(cfg, flag, v)
                got = _outcome(brute_force_negative_part, cfg, d)
                assert got == _outcome(_fraction_brute_force, cfg, d), f"{cfg.name}/{flag} at {v}"
                outcomes.add(type(got) if isinstance(got, dict) else got[0])
        assert len(by_config) == 42
        assert "A1-cuspidal" in {cfg.name for cfg in by_config}
        assert outcomes == {dict, NoSolution}

    def test_three_negative_parts_are_one_plain_dict_in_curve_order(self, catalog_flags):
        """Sweep, table and brute force at every chamber end and midpoint.

        Each returns a plain dict of its nonzero coefficients keyed in curve
        order, and brute force reads a plain list of int, str and Fraction
        entries.
        """
        kinds = (
            lambda x: x,
            format_rational,
            lambda x: int(x) if x.denominator == 1 else x,
        )
        entry_types = set()
        for label, cfg, flag, _ in catalog_flags:
            decomp = parametric_decompose(cfg, flag)
            table = SubsetTable(cfg, flag)
            ends = decomp.breakpoints()
            for v in [*ends, *((a + b) / 2 for a, b in zip(ends, ends[1:]))]:
                d = [kinds[j % 3](x) for j, x in enumerate(_divisor(cfg, flag, v))]
                entry_types.update(map(type, d))
                parts = (
                    decomp.negative_at(v),
                    table.negative_part(v),
                    brute_force_negative_part(cfg, d),
                )
                where = f"{label} at v = {v}"
                assert all(type(part) is dict for part in parts), where
                assert parts[0] == parts[1] == parts[2], where
                names = list(parts[0])
                assert names == [c for c in cfg.curve_names if c in parts[0]], where
                assert 0 not in parts[0].values(), where
        assert len(catalog_flags) == 95
        assert entry_types == {int, str, Fraction}

    def test_ambiguous(self):
        # two (-1)-curves meeting with multiplicity -2 (an indefinite pair):
        # at d.X0 = d.X1 = -1 each singleton is accepted with its own vector
        cfg = SurfaceConfig(
            name="crossed",
            norm=1,
            curve_names=["X0", "X1"],
            gram=[[-1, -2], [-2, -1]],
            anti_k=[0, 0],
        )
        d = [F(1, 3), F(1, 3)]
        got = _outcome(brute_force_negative_part, cfg, d)
        assert got[0] is Ambiguous and got[1].startswith("2 distinct negative parts")
        assert got == _outcome(_fraction_brute_force, cfg, d)

    @pytest.mark.parametrize("length", [2, 4])
    def test_divisor_of_the_wrong_length(self, a2_nodal, length):
        cfg = a2_nodal.config("base")  # three curves
        d = [F(1)] * length
        message = f"expected a divisor of length 3 on config A2-nodal, got {length}"
        with pytest.raises(DimensionMismatch, match=message):
            brute_force_negative_part(cfg, d)

    def test_curve_count_cap(self):
        n = 17
        cfg = SurfaceConfig(
            name="big",
            norm=1,
            curve_names=[f"X{i}" for i in range(n)],
            gram=[[-2 if i == j else 0 for j in range(n)] for i in range(n)],
            anti_k=[0] * n,
        )
        with pytest.raises(ValueError, match="at most 16 curves, got 17"):
            brute_force_negative_part(cfg, cfg.anti_k)

    def test_curve_count_cap_comes_before_any_pivot(self, monkeypatch):
        """The table refuses a configuration too wide for it as brute force does."""
        n = 17
        cfg = SurfaceConfig(
            name="wide",
            norm=1,
            curve_names=[f"X{i}" for i in range(n)],
            gram=[[-2 if i == j else 0 for j in range(n)] for i in range(n)],
            anti_k=[0] * n,
        )
        calls = []
        real = oracle.extend

        def counting(state, j):
            calls.append(j)
            return real(state, j)

        monkeypatch.setattr(oracle, "extend", counting)
        message = "at most 16 curves, got 17 on config wide"
        for build in (
            lambda: random_equivalence(cfg, "X0", trials=5),
            lambda: SubsetTable(cfg, "X0"),
            lambda: SubsetTable(cfg, "X1"),
            lambda: brute_force_negative_part(cfg, cfg.anti_k),
        ):
            with pytest.raises(ValueError, match=message):
                build()
        assert calls == []


class TestPivotWalk:
    """The table and brute force read each subset off its parent's pivot state."""

    def test_a_state_is_pivoted_only_for_a_subset_a_visited_subset_extends(
        self, catalog_flags, monkeypatch
    ):
        """Every flag's table, and brute force at the flag's first gate sample.

        The empty subset's state is the root columns, so it costs no pivot.
        """
        visited, pivoted = _record_walk(monkeypatch)
        totals = {"table": [0, 0], "brute force": [0, 0]}
        for label, cfg, flag, tau in catalog_flags:
            for kind, build in (
                ("table", lambda: SubsetTable(cfg, flag)),
                (
                    "brute force",
                    lambda: brute_force_negative_part(
                        cfg, _divisor(cfg, flag, _gate_samples(label, tau)[0])
                    ),
                ),
            ):
                visited.clear()
                pivoted.clear()
                build()
                _check_walk(cfg, visited, pivoted)
                totals[kind][0] += len(visited)
                totals[kind][1] += len(pivoted)
        # (visited subsets, pivots): of the 95 flags' 72,524 negative-definite
        # subsets, and with 33,839 of them pivoted when the walk has no bound
        assert totals == {"table": [8450, 4319], "brute force": [7744, 4099]}

    @pytest.mark.parametrize("make", [_semidefinite_pair, _nef_pair])
    def test_edge_configurations_match_the_references(self, make):
        cfg = make()
        for flag in cfg.curve_names:
            assert SubsetTable(cfg, flag).rows == _per_subset_rows(cfg, flag), flag
            for v in (F(0), F(1, 3), F(1), F(5, 2)):
                d = _divisor(cfg, flag, v)
                got = _outcome(brute_force_negative_part, cfg, d)
                assert got == _outcome(_fraction_brute_force, cfg, d), f"{flag} at {v}"

    def test_only_the_empty_subset(self):
        cfg = _nef_pair()
        assert negative_definite_subsets(cfg) == ((),) and _walk(cfg) == ()
        (row,) = SubsetTable(cfg, "F").rows  # D.F = 1 and D.H = 2 - v for D = -K - v*F
        assert (row.subset, row.lo, row.hi) == ((), 0, 2)
        d = [F(1), F(-1)]  # d.F = -1: no support is accepted
        assert _outcome(brute_force_negative_part, cfg, d)[0] is NoSolution

    @staticmethod
    def _match_the_references(cfg, fi, v, coeffs):
        n = len(cfg.curve_names)
        flag = cfg.curve_names[fi % n]
        assert SubsetTable(cfg, flag).rows == _per_subset_rows(cfg, flag)
        for d in (_divisor(cfg, flag, v), coeffs[:n]):
            got = _outcome(brute_force_negative_part, cfg, d)
            assert got == _outcome(_fraction_brute_force, cfg, d)

    _random_inputs = dict(
        fi=st.integers(0, 5),
        v=st.fractions(min_value=0, max_value=3, max_denominator=12),
        coeffs=st.lists(
            st.fractions(min_value=-2, max_value=2, max_denominator=6), min_size=6, max_size=6
        ),
    )

    @settings(max_examples=150, deadline=None)
    @given(
        cfg=_small_configs().filter(
            lambda cfg: any(x < 0 for i, row in enumerate(cfg.gram) for x in row[:i])
        ),
        **_random_inputs,
    )
    def test_random_gram_matrices_match_the_references(self, cfg, fi, v, coeffs):
        """A negative entry off the diagonal turns the bound off: the table's
        walk, and brute force's at the drawn divisor and at the drawn
        coefficients, each visit every negative-definite subset."""
        with pytest.MonkeyPatch.context() as monkeypatch:
            visited, _ = _record_walk(monkeypatch)
            self._match_the_references(cfg, fi, v, coeffs)
        assert visited == list(negative_definite_subsets(cfg)[1:]) * 3

    @settings(max_examples=150, deadline=None)
    @given(cfg=_small_configs(low=0), **_random_inputs)
    def test_random_nonnegative_gram_matrices_match_the_references(self, cfg, fi, v, coeffs):
        """No negative entry off the diagonal: the walk applies its bound."""
        self._match_the_references(cfg, fi, v, coeffs)


class TestQuadrature:
    def test_exact_piecewise_volume(self, a1_nodal):
        decomp = parametric_decompose(a1_nodal, "E")
        report = quadrature_check(decomp.p_sq_piecewise())
        assert report.ok
        assert report.exact == report.numeric == F(1, 2)
        assert report.error == 0

    def test_zero_piece(self):
        pp = PiecewisePoly([0, 1], [Poly(0, 0, 0, 1)])
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

    @staticmethod
    def _fraction_sampler(tau, trials, seed):
        """The sampler as it was on Fractions, with its range filter."""
        rng = random.Random(seed)
        out = []
        while len(out) < trials:
            q = rng.randint(2, 10_000)
            top = q * tau
            p_max = top.numerator // top.denominator
            if top.denominator == 1:
                p_max -= 1
            if p_max < 1:
                continue
            v = F(rng.randint(1, p_max), q)
            if 0 < v < tau:
                out.append(v)
        return out

    # integer tau always lands q * tau on an integer, 3/2 and 5/6 on some q
    # only, and 7/10007 on none (no q up to 10^4 is a multiple of 10007)
    @pytest.mark.parametrize("tau", [F(1), F(4), F(3, 2), F(5, 6), F(7, 3), F(1, 50), F(7, 10007)])
    def test_matches_the_fraction_sampler(self, tau):
        for seed in range(200):
            assert sample_parameters(tau, 20, seed) == self._fraction_sampler(tau, 20, seed)

    @pytest.mark.parametrize("tau", [F(1, 10_000), F(1, 20_000), F(0), F(-1, 2)])
    def test_too_small_tau_is_refused(self, tau):
        # no denominator up to 10^4 leaves a sample in (0, tau): it would draw forever
        with pytest.raises(ValueError, match=f"for tau = {tau}; tau must exceed 1/10000"):
            sample_parameters(tau, 3, 0)

    def test_tau_just_above_the_bound_samples(self):
        # only q = 10^4 admits a numerator, and only p = 1
        assert sample_parameters(F(1, 9_999), 3, 0) == [F(1, 10_000)] * 3


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

    def test_matches_the_evaluating_loop(self, catalog_flags):
        """The gate seed and one more, on every flag: the same report as the
        loop that evaluates every trial."""
        for label, cfg, flag, _ in catalog_flags:
            decomp = parametric_decompose(cfg, flag)
            for seed in (zlib.crc32(label.encode()), zlib.crc32(label.encode()) ^ 1):
                expected = _evaluating_equivalence(cfg, flag, 100, seed, decomp)
                assert random_equivalence(cfg, flag, 100, seed, decomp) == expected, label
        assert len(catalog_flags) == 95

    def test_a_tampered_chamber_gives_mismatches(self, a1_nodal):
        decomp = parametric_decompose(a1_nodal, "E")
        first, last = decomp.chambers
        rows = last.rows
        assert rows.support == (0,)  # C on [1/2, 1]
        # N_C gains v, so the sweep's side is wrong at every sample in the chamber
        tampered = Chamber(
            last.lo, last.hi, rows._replace(x1=[rows.x1[0] + rows.n_den]), last.p_sq
        )
        bad = dataclasses.replace(decomp, chambers=(first, tampered))
        report = random_equivalence(a1_nodal, "E", trials=100, seed=5, decomp=bad)
        inside = [v for v in sample_parameters(decomp.tau, 100, 5) if v > first.hi]
        assert len(inside) > 1  # so some are trials after the first
        assert [m.v for m in report.mismatches] == inside
        for m in report.mismatches:
            assert m.engine == {"C": decomp.negative_at(m.v)["C"] + m.v}
            assert m.oracle == decomp.negative_at(m.v)
        assert report.ambiguous == 0
        assert report == _evaluating_equivalence(a1_nodal, "E", 100, 5, bad)

    def test_an_overlapping_row_counts_as_ambiguous(self, a1_nodal, monkeypatch):
        def with_overlap(config, flag):
            table = SubsetTable(config, flag)
            (row,) = [r for r in table.rows if r.subset]  # C on [1/2, 1]
            table.rows += (dataclasses.replace(row, num0=(row.num0[0] + row.den,)),)
            return table

        monkeypatch.setattr(oracle, "SubsetTable", with_overlap)
        decomp = parametric_decompose(a1_nodal, "E")
        report = random_equivalence(a1_nodal, "E", trials=100, seed=5, decomp=decomp)
        overlapped = [v for v in sample_parameters(decomp.tau, 100, 5) if v >= F(1, 2)]
        assert report.ambiguous == len(overlapped) > 0
        assert report.mismatches == ()
        assert report == _evaluating_equivalence(a1_nodal, "E", 100, 5, decomp)

    def test_a_missing_row_raises_no_solution(self, a1_nodal, monkeypatch):
        def without_c(config, flag):
            table = SubsetTable(config, flag)
            table.rows = tuple(r for r in table.rows if not r.subset)  # [0, 1/2] alone
            return table

        monkeypatch.setattr(oracle, "SubsetTable", without_c)
        samples = sample_parameters(F(1), 100, 1)
        assert samples[0] < F(1, 2) < max(samples)  # the first trial finds its row
        with pytest.raises(NoSolution, match="no negative-definite support accepts"):
            random_equivalence(a1_nodal, "E", trials=100, seed=1)

    def test_the_first_sample_meets_brute_force(self, a1_nodal, monkeypatch):
        monkeypatch.setattr(oracle, "brute_force_negative_part", lambda config, d: {"E": F(1)})
        report = random_equivalence(a1_nodal, "E", trials=100, seed=5)
        (v,) = sample_parameters(F(1), 1, 5)
        found = parametric_decompose(a1_nodal, "E").negative_at(v)
        assert report.mismatches == (EquivalenceMismatch(v, {"E": F(1)}, found),)

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


class TestAffineVector:
    @settings(max_examples=200, deadline=None)
    @given(
        c0=st.lists(st.integers(-6, 6), min_size=4, max_size=4),
        c1=st.lists(st.integers(-6, 6), min_size=4, max_size=4),
        den=st.integers(1, 12),
        o0=st.lists(st.integers(-6, 6), min_size=4, max_size=4),
        o1=st.lists(st.integers(-6, 6), min_size=4, max_size=4),
        other_den=st.integers(1, 12),
        scale=st.integers(1, 6),
    )
    def test_equal_forms_are_equal_functions(self, c0, c1, den, o0, o1, other_den, scale):
        """Two forms agree exactly when the vectors agree at v = 0 and v = 1,
        that is as affine functions; order and a common factor never matter."""
        form = affine_vector(range(4), c0, c1, den)
        scaled = [scale * a for a in c0[::-1]], [scale * b for b in c1[::-1]]
        assert affine_vector(range(3, -1, -1), *scaled, scale * den) == form

        def at(v, x0, x1, d):
            return [F(a + b * v, d) for a, b in zip(x0, x1)]

        same = all(at(v, c0, c1, den) == at(v, o0, o1, other_den) for v in (0, 1))
        assert (affine_vector(range(4), o0, o1, other_den) == form) == same

    def test_zero_entries_and_the_zero_vector(self):
        assert affine_vector((2, 0, 1), (0, 4, 0), (0, -2, 0), 6) == (((0, 2, -1),), 3)
        assert affine_vector((0, 1), (0, 0), (0, 0), 5) == ((), 1)
        assert affine_vector((), (), (), 7) == ((), 1)
