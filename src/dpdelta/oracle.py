"""Independent cross-checks for the decomposition engine.

The oracle never reuses the sweep: it enumerates every negative-definite
subset of curves, solves the orthogonality system on each subset, and keeps
the candidates whose coefficients are nonnegative and whose residual is nef
against all curves. Uniqueness of the decomposition makes agreement of all
accepted candidates a hard invariant (violations raise Ambiguous).

All subset systems of one configuration share one elimination tree. The
subsets come out of the enumeration in depth-first preorder, so each is its
prefix plus one index, and one Bareiss step (`linalg.extend`) takes the
prefix's state to the subset's. The states are kept on a stack of depth at
most the curve count. Each state carries the whole augmented matrix, so it
gives the subset's solution and, without further sums, every off-subset
residual.

The integer Gram matrix mu * gram is the one the configuration owns
(`SurfaceConfig.int_gram`, built with the configuration). The oracle sums
its own (-K).C row from those rows and `anti_k` for each table, so it reads
none of the sweep's data and not the configuration's (-K).C row. Subset
solutions are computed once per (config, flag) pair as integer affine
functions of the sweep parameter, so checking hundreds of random parameter
values stays fast. Building the table scans each subset's conditions (its
coefficients, then one residual per curve off the subset) on integers and
stops at the first one that empties its interval; the accepted rows are
indexed by their sorted endpoints, so a lookup is one bisect and still sees
every row that contains the parameter.
A pointwise reference (`brute_force_negative_part`) walks the subsets again
at a single divisor, on integers scaled from the Gram matrix and the
divisor, never reads the table, and is spot checked against it. Both run on
the pivot step of `linalg`, which the sweep reaches through the integer
`linalg.solve`; the acceptance gate checks the sweep's output by
substitution alone. The quadrature check evaluates each piece as a `Poly`
and applies Simpson's rule in exact arithmetic, independent of the
antiderivatives `PiecewisePoly` integrates with.
"""
from __future__ import annotations

import bisect
import itertools
import math
import random
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .config import DivisorClass, SurfaceConfig
from .errors import Ambiguous, NoSolution
from .linalg import State, extend, solve  # noqa: F401 - the bench tracer tests read oracle.solve
from .poly import PiecewisePoly
from .rationals import RatLike, format_rational, parse_rational
from .zariski import Decomposition, NegativePart, decomposition_for

_MAX_BRUTE_FORCE_CURVES = 16

_nd_cache: "weakref.WeakKeyDictionary[SurfaceConfig, tuple[tuple[int, ...], ...]]" = (
    weakref.WeakKeyDictionary()
)
_table_cache: "weakref.WeakKeyDictionary[SurfaceConfig, dict]" = weakref.WeakKeyDictionary()


def negative_definite_subsets(config: SurfaceConfig) -> tuple[tuple[int, ...], ...]:
    """All index subsets whose Gram submatrix is negative definite.

    Uses Sylvester's criterion incrementally: a DFS in ascending index order
    extends a subset by j exactly when the new leading principal minor of
    the negated Gram matrix stays positive, which a `linalg.extend` state
    exposes as the pivot candidate at j. Includes the empty subset. The
    subsets come in DFS preorder: each nonempty subset's `subset[:-1]` is
    the most recent earlier subset of that length, which `_subset_states`
    relies on.
    """
    if config in _nd_cache:
        return _nd_cache[config]
    gh = config.int_gram
    n = len(gh)
    out: list[tuple[int, ...]] = [()]

    def dfs(subset: tuple[int, ...], state: State) -> None:
        cols = state[0]
        for j in range(subset[-1] + 1 if subset else 0, n):
            if cols[j][j] > 0:
                out.append(subset + (j,))
                dfs(subset + (j,), extend(state, j))

    dfs((), ([[-x for x in col] for col in zip(*gh)], 1))
    result = tuple(out)
    _nd_cache[config] = result
    return result


def _subset_states(
    config: SurfaceConfig, gh: Sequence[Sequence[int]], rhs: Sequence[Sequence[int]]
) -> Iterator[tuple[tuple[int, ...], list[list[int]], int]]:
    """(subset, columns, d) for every negative-definite subset, in order.

    The columns are those of [a | -rhs] with a = -gh after pivoting on the
    subset S: d = det(a_S) > 0, each right-hand-side column holds d*x on S,
    where gh_S x = rhs_S, and -d times the residual rhs_j - (gh x)_j off S.
    The subsets come in depth-first preorder, so a subset's prefix is the
    last state on the stack one level up and each state costs one pivot.
    """
    a = [[-x for x in col] for col in zip(*gh)] + [[-x for x in col] for col in rhs]
    stack: list[State] = [(a, 1)]
    for subset in negative_definite_subsets(config):
        k = len(subset)
        if k:
            stack[k:] = [extend(stack[k - 1], subset[-1])]
        yield subset, *stack[k]


@dataclass(frozen=True, slots=True)
class _TableRow:
    subset: tuple[int, ...]
    lo: Fraction
    hi: Fraction | None  # None means unbounded above
    num0: tuple[int, ...]
    num1: tuple[int, ...]
    den: int


def _accepted_interval(
    conds: Iterable[tuple[int, int]],
) -> tuple[Fraction, Fraction | None] | None:
    """The v >= 0 with c0 + c1*v >= 0 for every condition, or None if empty.

    Endpoints are kept as integer (numerator, positive denominator) pairs,
    and the scan stops at the first condition that empties the interval.
    """
    ln, ld = 0, 1
    hn, hd = 0, 0  # hd == 0: unbounded above
    for c0, c1 in conds:
        if c1 > 0:
            if -c0 * ld <= ln * c1:
                continue
            ln, ld = -c0, c1
        elif c1 < 0:
            if hd and c0 * hd >= -c1 * hn:
                continue
            hn, hd = c0, -c1
        elif c0 < 0:
            return None
        else:
            continue
        if hd and ln * hd > hn * ld:
            return None
    return Fraction(ln, ld), (Fraction(hn, hd) if hd else None)


class _RowIndex:
    """Closed intervals [lo, hi] indexed for point lookups.

    The sorted distinct endpoints e_0 < ... < e_{m-1} cut the line into
    2m + 1 slots: slot 2i + 1 is the point e_i, slot 2i the open gap just
    below it, and slot 2m the gap above e_{m-1}. Each slot lists every row
    that covers it, so a lookup is one bisect and sees every covering row.
    """

    def __init__(self, rows: Sequence[_TableRow]):
        ends = sorted({row.lo for row in rows} | {row.hi for row in rows if row.hi is not None})
        slot_of = {e: 2 * i + 1 for i, e in enumerate(ends)}
        slots: list[list[_TableRow]] = [[] for _ in range(2 * len(ends) + 1)]
        for row in rows:
            last = 2 * len(ends) if row.hi is None else slot_of[row.hi]
            for s in range(slot_of[row.lo], last + 1):
                slots[s].append(row)
        self.ends = ends
        self.slots = [tuple(rows_here) for rows_here in slots]

    def covering(self, v: Fraction) -> tuple[_TableRow, ...]:
        """Every row with lo <= v <= hi."""
        i = bisect.bisect_left(self.ends, v)
        if i < len(self.ends) and self.ends[i] == v:
            return self.slots[2 * i + 1]
        return self.slots[2 * i]


class SubsetTable:
    """Per-flag acceptance intervals for every negative-definite subset.

    Row coefficients are integer affine numerators over a positive common
    denominator; a subset's row represents the unique solution of its
    orthogonality system together with the exact v-interval on which that
    solution has nonnegative coefficients and nef residual. Each subset's
    conditions are scanned in integers until one empties the interval, and
    the accepted rows are indexed by their endpoints for lookups.
    """

    def __init__(self, config: SurfaceConfig, flag: str):
        # names only: a table that held its configuration would keep the
        # configuration's own entry in the weakly keyed table cache alive
        self.config_name = config.name
        self.curve_names = config.curve_names
        self.flag = flag
        gh = config.int_gram
        n = len(gh)
        fi = config.index(flag)
        # (-K).C is summed here, not read from the configuration: with
        # alpha * anti_k = a integral, k_j = sum_i a_i * gh[i][j] is
        # mu * alpha * (-K).C_j, so r0 = k / g is mu * rho * (-K).C_j for
        # g = gcd(alpha, k_0, ..., k_{n-1}) and rho = alpha / g.
        alpha = math.lcm(*(c.denominator for c in config.anti_k))
        terms = [
            (i, c.numerator * (alpha // c.denominator)) for i, c in enumerate(config.anti_k) if c
        ]
        k = [sum(a * gh[i][j] for i, a in terms) for j in range(n)]
        g = math.gcd(alpha, *k)
        rho = alpha // g
        r0 = [x // g for x in k]
        r1 = [-rho * gh[fi][j] for j in range(n)]

        rows: list[_TableRow] = []
        for subset, work, d in _subset_states(config, gh, (r0, r1)):
            b0, b1 = work[n], work[n + 1]
            conds = itertools.chain(
                ((b0[i], b1[i]) for i in subset),
                ((-b0[j], -b1[j]) for j in range(n) if j not in subset),
            )
            interval = _accepted_interval(conds)
            if interval is not None:
                x0 = tuple(b0[i] for i in subset)
                x1 = tuple(b1[i] for i in subset)
                rows.append(_TableRow(subset, *interval, x0, x1, rho * d))
        self.rows = tuple(rows)
        self.index = _RowIndex(self.rows)

    def negative_part(self, v: RatLike) -> NegativePart:
        """The unique accepted negative part at one parameter value."""
        v = parse_rational(v)
        names = self.curve_names
        p, q = v.numerator, v.denominator
        vectors = set()
        for row in self.index.covering(v):
            full = [Fraction(0)] * len(names)
            for i, idx in enumerate(row.subset):
                full[idx] = Fraction(row.num0[i] * q + row.num1[i] * p, row.den * q)
            vectors.add(tuple(full))
        if not vectors:
            raise NoSolution(
                f"no negative-definite support accepts v = {format_rational(v)} "
                f"for flag {self.flag} on {self.config_name}"
            )
        if len(vectors) > 1:
            raise Ambiguous(
                f"{len(vectors)} distinct negative parts at v = {format_rational(v)} "
                f"for flag {self.flag} on {self.config_name}"
            )
        (full,) = vectors
        coeffs = {names[i]: c for i, c in enumerate(full) if c != 0}
        return NegativePart(tuple(sorted(coeffs)), coeffs)


def subset_table(config: SurfaceConfig, flag: str) -> SubsetTable:
    per_config = _table_cache.setdefault(config, {})
    if flag not in per_config:
        per_config[flag] = SubsetTable(config, flag)
    return per_config[flag]


def brute_force_negative_part(config: SurfaceConfig, d: DivisorClass) -> NegativePart:
    """Reference Zariski negative part by exhaustive subset search.

    Solves every negative-definite subset's orthogonality system at the one
    divisor d, on integers: with mu * gram and lam * d integral, a subset's
    solution is y / (det * lam) where y is the eliminated right-hand side.
    Keeps candidates with nonnegative coefficients and nef residual, both
    decided by integer signs; all accepted candidates must agree. It never
    reads the parametric table.
    """
    names = config.curve_names
    n = len(names)
    if n > _MAX_BRUTE_FORCE_CURVES:
        raise ValueError(
            f"brute force supports at most {_MAX_BRUTE_FORCE_CURVES} curves, got {n}"
        )
    gh = config.int_gram
    lam = math.lcm(*(c.denominator for c in d.coeffs))
    terms = [(i, int(c * lam)) for i, c in enumerate(d.coeffs) if c]
    b = [sum(a * gh[i][j] for i, a in terms) for j in range(n)]  # mu * lam * d.D_j
    accepted: list[tuple[Fraction, ...]] = []
    for subset, work, det in _subset_states(config, gh, (b,)):
        y = work[n]  # det * y on the subset, -det * residual off it
        if any(y[i] < 0 for i in subset):
            continue
        if any(y[j] > 0 for j in range(n) if j not in subset):
            continue
        full = [Fraction(0)] * n
        for idx in subset:
            full[idx] = Fraction(y[idx], det * lam)
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


# -- quadrature ---------------------------------------------------------


@dataclass(frozen=True)
class QuadratureReport:
    exact: Fraction
    numeric: Fraction
    error: Fraction
    tol: float

    @property
    def ok(self) -> bool:
        return self.error <= self.tol


def quadrature_check(pp: PiecewisePoly, tol: float = 1e-9) -> QuadratureReport:
    """Simpson's rule, one exact panel per piece, against the closed-form integral.

    Simpson's rule is exact for polynomials of degree <= 3, so the two
    values agree exactly on every piecewise quadratic.
    """
    numeric = Fraction(0)
    for piece, lo, hi in zip(pp.pieces, pp.breakpoints, pp.breakpoints[1:]):
        p = piece.poly()
        numeric += (hi - lo) / 6 * (p(lo) + 4 * p((lo + hi) / 2) + p(hi))
    exact = pp.integrate()
    return QuadratureReport(exact=exact, numeric=numeric, error=abs(exact - numeric), tol=tol)


# -- randomized engine/oracle agreement ----------------------------------


@dataclass(frozen=True)
class EquivalenceMismatch:
    v: Fraction
    engine: Mapping[str, Fraction]
    oracle: Mapping[str, Fraction]


@dataclass(frozen=True)
class EquivalenceReport:
    config_name: str
    flag: str
    trials: int
    seed: int
    tau: Fraction
    mismatches: tuple[EquivalenceMismatch, ...]
    ambiguous: int

    @property
    def ok(self) -> bool:
        return not self.mismatches and self.ambiguous == 0


def sample_parameters(tau: Fraction, trials: int, seed: int) -> list[Fraction]:
    """Deterministic rational samples in (0, tau) with denominator <= 10^4."""
    rng = random.Random(seed)
    out: list[Fraction] = []
    while len(out) < trials:
        q = rng.randint(2, 10_000)
        top = q * tau
        p_max = top.numerator // top.denominator
        if top.denominator == 1:
            p_max -= 1
        if p_max < 1:
            continue
        v = Fraction(rng.randint(1, p_max), q)
        if 0 < v < tau:
            out.append(v)
    return out


def random_equivalence(
    config: SurfaceConfig,
    flag: str,
    trials: int = 100,
    seed: int = 0,
    decomp: Decomposition | None = None,
) -> EquivalenceReport:
    """Compare the sweep against the subset oracle at random parameters.

    Every sampled v must yield the identical negative part from both sides,
    with no subset ambiguity; the first sample is additionally checked
    against the pointwise brute force.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    decomp = decomposition_for(config, flag, decomp)
    table = subset_table(config, flag)
    mismatches: list[EquivalenceMismatch] = []
    ambiguous = 0
    samples = sample_parameters(decomp.tau, trials, seed)
    for i, v in enumerate(samples):
        engine = decomp.negative_at(v).coeffs
        try:
            oracle = table.negative_part(v).coeffs
        except Ambiguous:
            ambiguous += 1
            continue
        if dict(engine) != dict(oracle):
            mismatches.append(EquivalenceMismatch(v, dict(engine), dict(oracle)))
            continue
        if i == 0:
            d = config.anti_k_divisor - config.basis_vector(flag).scale(v)
            reference = brute_force_negative_part(config, d).coeffs
            if dict(reference) != dict(oracle):
                mismatches.append(EquivalenceMismatch(v, dict(reference), dict(oracle)))
    return EquivalenceReport(
        config_name=config.name,
        flag=flag,
        trials=trials,
        seed=seed,
        tau=decomp.tau,
        mismatches=tuple(mismatches),
        ambiguous=ambiguous,
    )
