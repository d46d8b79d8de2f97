"""Independent cross-checks for the decomposition engine.

The oracle never reuses the sweep: it enumerates negative-definite subsets
of curves, solves the orthogonality system on each subset, and keeps the
candidates whose coefficients are nonnegative and whose residual is nef
against all curves. Uniqueness of the decomposition makes agreement of all
accepted candidates a hard invariant (violations raise Ambiguous).

It skips only subsets that cannot be accepted. Call a curve r required when
it meets every other curve nonnegatively (row r of the integer Gram matrix
has no negative entry off the diagonal) and its right-hand side rhs_r is
negative at every v > 0: for the table, r0_r + r1_r*v with r0_r, r1_r <= 0
and one of them < 0; for brute force, b_r < 0. A subset S without r is
never accepted at any v > 0: where its coefficients x are nonnegative, r's
residual rhs_r - sum_{i in S} x_i*G[r][i] is at most rhs_r < 0. So a table
row for S would be empty or the point {0}, which the table drops anyway, and
brute force rejects S. Every accepted subset therefore contains every
required curve, and the walk, which adds indices in ascending order, gives
up on a branch as soon as it passes a required index.

All subset systems of one configuration share one elimination tree, which
one depth-first walk enumerates. Each subset is its parent (its prefix)
plus one index, and one Bareiss step (`linalg.extend`) takes the parent's
state to the subset's. A subset's determinant (positive exactly when the
subset is negative definite, its parent being so, by Sylvester's
criterion), its solution and its off-subset residuals are entries of its
own state, and each entry is one Bareiss update of two entries of the
parent's state. So a subset is read off its parent, one entry at a time and
only as far as its conditions are checked, and a whole state is pivoted
only for a subset with children, which its children read in turn. Those
states are kept on a stack of depth at most the curve count; about half the
subsets are leaves and cost no pivot. A pivot, in turn, costs little per
column on the catalog's sparse Gram matrices: on one acceptance-gate pass
about three in five of the columns `linalg.extend` updates miss the pivot
row, and it only rescales those; a quarter of them also keep their scale
and are shared with the parent's state as they are. A pivot's time is now split
between the full update of the columns that meet the pivot row, the
rescaled columns, and the loop over the columns itself.

The integer Gram matrix mu * gram is the one the configuration owns
(`SurfaceConfig.int_gram`, built with the configuration). The oracle sums
its own (-K).C row from those rows and `anti_k` for each table, so it reads
none of the sweep's data and not the configuration's (-K).C row. A table
holds one (config, flag) pair's subset solutions as integer affine
functions of the sweep parameter, so checking hundreds of random parameter
values against one table stays fast. Building the table scans each
subset's conditions (its coefficients, the new one first, then one
residual per curve off it) on integers, computing each only when the scan
reaches it, and stops at the first one that empties its interval or
shrinks it to {0}. A subset accepted at v = 0 alone repeats N(0): Zariski
chambers are closed intervals and the decomposition is unique, so the row
of the first chamber's support already gives N(0) on [0, hi]. The table
keeps only rows a lookup can read (a few dozen per flag), and a lookup
(`SubsetTable.rows_at`) scans them all, comparing v with each row's ends on
integers.

A random trial compares functions before values. The sweep's N(v) is
affine on each chamber, and so is a table row's on its interval; each side
writes its vector in the canonical form of `rationals.affine_vector`, equal
for two vectors exactly when they are equal as functions of v. If v lies in
at least one row and every row holding v has the form of v's chamber, every
such row gives the chamber's N(v) at v: the lookup would find one vector
and no ambiguity, and it would equal the sweep's. The trial agrees without
building a Fraction. Otherwise, and always at the first sample, which is
also checked against brute force, the trial evaluates both sides at v as a
pointwise lookup does, so a mismatch, an ambiguity or a missing row is
found and reported exactly as before.

A pointwise reference (`brute_force_negative_part`) walks the subsets again
at a single divisor, on integers scaled from the Gram matrix and the
divisor, with the same lazy reads. It never reads the table and is spot
checked against it. Both run on the pivot step of `linalg`, which the sweep
reaches through the integer `linalg.solve`; the acceptance gate checks the
sweep's output by substitution alone. The quadrature check applies
Simpson's rule to each piece's exact values (`IntQuadratic.value_at`),
independent of the closed form `PiecewisePoly` integrates with.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .config import DivisorClass, SurfaceConfig
from .errors import Ambiguous, DimensionMismatch, NoSolution
from .linalg import extend, solve  # noqa: F401 - the bench tracer tests read oracle.solve
from .poly import PiecewisePoly
from .rationals import AffineVector, RatLike, affine_vector, format_rational, parse_rational
from .zariski import Decomposition, NegativePart, decomposition_for

# the subsets of a wider configuration are too many to enumerate
_MAX_ORACLE_CURVES = 16


def _check_curve_count(config: SurfaceConfig) -> None:
    """Refuse a configuration with too many curves for the subset enumeration."""
    n = len(config.curve_names)
    if n > _MAX_ORACLE_CURVES:
        raise ValueError(
            f"the subset oracle supports at most {_MAX_ORACLE_CURVES} curves, "
            f"got {n} on config {config.name}"
        )


def _root_columns(gh: Sequence[Sequence[int]], rhs: Sequence[Sequence[int]]) -> list[list[int]]:
    """The columns of [a | -rhs] with a = -gh: the empty subset's state."""
    return [[-x for x in col] for col in zip(*gh)] + [[-x for x in col] for col in rhs]


def _required(gh: Sequence[Sequence[int]], rhs: Sequence[Sequence[int]]) -> frozenset[int]:
    """The required curves (see the module docstring): every accepted subset contains them.

    Curve r is required when row r of gh has no negative entry off the
    diagonal and its `rhs` entries are all <= 0 and not all 0, so that its
    right-hand side is negative at every v > 0.
    """
    return frozenset(
        r
        for r, (row, *ys) in enumerate(zip(gh, *rhs))
        if max(ys) <= 0 and min(ys) < 0 and all(x >= 0 for i, x in enumerate(row) if i != r)
    )


def _subset_states(
    config: SurfaceConfig, root: list[list[int]], required: frozenset[int]
) -> Iterator[tuple[tuple[int, ...], list[list[int]], int, int]]:
    """(subset, columns, prev, j) for every nonempty negative-definite subset
    that contains each index of `required` below its last index.

    (columns, prev) is the `linalg.extend` state of the parent subset[:-1],
    pivoted from the root columns [a | -rhs] with a = -gh, and j is
    subset[-1]. The subset's own state is one Bareiss step away, and a
    caller reads off it only the entries it needs: with fcol = columns[j]
    and p = fcol[j] = det(a_S) > 0, entry r of a column col past j is
    (p*col[r] - fcol[r]*col[j]) // prev, and entry j is col[j]. On a
    right-hand-side column that is p*x_r for r in S, where gh_S x = rhs_S,
    and -p times the residual rhs_r - (gh x)_r off S.

    The walk runs depth first in ascending index order. subset + (j,) is
    negative definite exactly when the parent's columns[j][j] > 0
    (Sylvester), and it has children exactly when a later diagonal entry of
    its own state is positive, read up to the first one. Only then is it
    pivoted (one `extend`), and its state waits on a stack of depth at most
    the curve count while its children are walked.

    Indices are added in ascending order, so once the walk passes a
    required index no subset below that point can contain it: a frame ends
    after the first required index it tries, and a subset is neither
    pivoted nor descended into when its first definite extension k leaves a
    required index between its last index and k. With `required` from
    `_required`, every subset skipped that way is rejected anyway (see the
    module docstring); with an empty set the walk visits every
    negative-definite subset, in depth-first preorder.
    """
    n = len(config.int_gram)
    # stop[j] is one past the first required index >= j (n if there is none):
    # a frame at j, or a scan for the next definite extension from j, ends there
    stop = [n] * (n + 1)
    for r in range(n - 1, -1, -1):
        stop[r] = r + 1 if r in required else stop[r + 1]
    frames = [((), (root, 1), 0)]  # (subset, its state, next index to try)
    while frames:
        subset, state, j = frames.pop()
        cols, prev = state
        end = stop[j]
        while j < end:
            fcol = cols[j]
            p = fcol[j]
            if p > 0:
                child = subset + (j,)
                yield child, cols, prev, j
                for k in range(j + 1, stop[j + 1]):
                    ck = cols[k]
                    if (p * ck[k] - fcol[k] * ck[j]) // prev > 0:  # child + (k,) is definite
                        if j + 1 < end:  # the frame goes on past j
                            frames.append((subset, state, j + 1))
                        subset, state, j = child, extend(state, j), k
                        cols, prev = state
                        end = stop[j]
                        break
                else:
                    j += 1
            else:
                j += 1


def _pivoted(
    col: Sequence[int], fcol: Sequence[int], prev: int, j: int, rows: Iterable[int]
) -> tuple[int, ...]:
    """Entries `rows` of `col` after the pivot on j (the step of `linalg.extend`)."""
    p, y = fcol[j], col[j]
    return tuple(y if r == j else (p * col[r] - fcol[r] * y) // prev for r in rows)


@dataclass(frozen=True, slots=True)
class _TableRow:
    subset: tuple[int, ...]
    lo: Fraction
    hi: Fraction | None  # None means unbounded above
    num0: tuple[int, ...]
    num1: tuple[int, ...]
    den: int
    # (lo numerator, lo denominator, hi numerator, hi denominator), hi's
    # denominator 0 when unbounded: a lookup compares on these integers
    ends: tuple[int, int, int, int] = field(init=False, repr=False, compare=False)
    # the row's N(v) in the form of `affine_vector`, which a trial compares
    # with its chamber's `n_affine`
    n_affine: AffineVector = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        hi = (0, 0) if self.hi is None else (self.hi.numerator, self.hi.denominator)
        object.__setattr__(self, "ends", (self.lo.numerator, self.lo.denominator, *hi))
        n_affine = affine_vector(self.subset, self.num0, self.num1, self.den)
        object.__setattr__(self, "n_affine", n_affine)


def _accepted_interval(
    conds: Iterable[tuple[int, int]],
) -> tuple[Fraction, Fraction | None] | None:
    """The v >= 0 with c0 + c1*v >= 0 for every condition, or None if that
    set is empty or only {0}.

    Endpoints are kept as integer (numerator, positive denominator) pairs,
    and the scan stops at the first condition that empties the interval or
    bounds it by 0 from above.
    """
    ln, ld = 0, 1
    hn, hd = 0, 0  # hd == 0: unbounded above
    for c0, c1 in conds:
        if c1 > 0:
            if -c0 * ld <= ln * c1:
                continue
            ln, ld = -c0, c1
        elif c1 < 0:
            if c0 <= 0:
                return None  # empty, or only {0}
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


def _conditions(
    subset: tuple[int, ...],
    b0: Sequence[int],
    b1: Sequence[int],
    fcol: Sequence[int],
    prev: int,
    n: int,
) -> Iterator[tuple[int, int]]:
    """A subset's conditions c0 + c1*v >= 0, each read off its parent's state when asked.

    (b0, b1) are the parent's right-hand-side columns and fcol its column
    j = subset[-1]; each condition is one Bareiss update (`_subset_states`).
    The new coefficient x_j comes first, as it needs no update, then the
    rest of the subset's coefficients, then one residual per curve off it.
    """
    j = subset[-1]
    p, y0, y1 = fcol[j], b0[j], b1[j]
    yield y0, y1
    for i in subset[:-1]:
        f = fcol[i]
        yield (p * b0[i] - f * y0) // prev, (p * b1[i] - f * y1) // prev
    for r in range(n):
        if r not in subset:
            f = fcol[r]
            yield (f * y0 - p * b0[r]) // prev, (f * y1 - p * b1[r]) // prev


class SubsetTable:
    """Per-flag acceptance intervals for every negative-definite subset.

    Row coefficients are integer affine numerators over a positive common
    denominator; a subset's row represents the unique solution of its
    orthogonality system together with the exact v-interval on which that
    solution has nonnegative coefficients and nef residual. Each subset's
    conditions are scanned in integers until one empties the interval or
    leaves only {0}. Only rows a lookup can read are kept: a subset accepted
    at v = 0 alone repeats N(0), which the first chamber's support gives on
    [0, hi]. Rows that are single points v > 0 stay, since a sample can land
    on one and must then meet the ambiguity check. A lookup (`rows_at`)
    scans the rows; `negative_part` evaluates the rows it finds at v, and
    each row's `n_affine` lets a caller compare a row with another affine
    N without evaluating it.
    """

    def __init__(self, config: SurfaceConfig, flag: str):
        _check_curve_count(config)
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

        root = _root_columns(gh, (r0, r1))
        rows: list[_TableRow] = []
        # the empty subset: every curve is off it, with residual rhs
        interval = _accepted_interval((-c0, -c1) for c0, c1 in zip(root[n], root[n + 1]))
        if interval is not None:
            rows.append(_TableRow((), *interval, (), (), rho))
        for subset, cols, prev, j in _subset_states(config, root, _required(gh, (r0, r1))):
            b0, b1, fcol = cols[n], cols[n + 1], cols[j]
            interval = _accepted_interval(_conditions(subset, b0, b1, fcol, prev, n))
            if interval is not None:
                x0 = _pivoted(b0, fcol, prev, j, subset)
                x1 = _pivoted(b1, fcol, prev, j, subset)
                rows.append(_TableRow(subset, *interval, x0, x1, rho * fcol[j]))
        self.rows = tuple(rows)

    def rows_at(self, v: RatLike) -> list[_TableRow]:
        """The rows whose interval holds v, comparing v with their ends on integers."""
        v = parse_rational(v)
        p, q = v.numerator, v.denominator
        found = []
        for row in self.rows:
            ln, ld, hn, hd = row.ends
            if ln * q <= p * ld and (not hd or p * hd <= hn * q):
                found.append(row)
        return found

    def negative_part(self, v: RatLike) -> NegativePart:
        """The unique accepted negative part at one parameter value."""
        v = parse_rational(v)
        names = self.curve_names
        p, q = v.numerator, v.denominator
        vectors: list[tuple[tuple[int, Fraction], ...]] = []
        for row in self.rows_at(v):
            # the nonzero coefficients keyed by curve index, in curve order
            vector = tuple(
                (idx, c)
                for idx, a, b in zip(row.subset, row.num0, row.num1)
                if (c := Fraction(a * q + b * p, row.den * q))
            )
            if vector not in vectors:
                vectors.append(vector)
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
        (vector,) = vectors
        coeffs = {names[i]: c for i, c in vector}
        return NegativePart(tuple(sorted(coeffs)), coeffs)


def brute_force_negative_part(config: SurfaceConfig, d: DivisorClass) -> NegativePart:
    """Reference Zariski negative part by exhaustive subset search.

    Solves every negative-definite subset's orthogonality system at the one
    divisor d, on integers: with mu * gram and lam * d integral, a subset's
    solution is y / (det * lam) where y is the pivoted right-hand side.
    Keeps candidates with nonnegative coefficients and nef residual, both
    decided by integer signs; all accepted candidates must agree. It never
    reads the parametric table. Raises DimensionMismatch when d has not one
    coefficient per curve.
    """
    _check_curve_count(config)
    names = config.curve_names
    n = len(names)
    if len(d) != n:
        raise DimensionMismatch(
            f"expected a divisor of length {n} on config {config.name}, got {len(d)}"
        )
    gh = config.int_gram
    lam = math.lcm(*(c.denominator for c in d.coeffs))
    terms = [(i, int(c * lam)) for i, c in enumerate(d.coeffs) if c]
    b = [sum(a * gh[i][j] for i, a in terms) for j in range(n)]  # mu * lam * d.D_j
    root = _root_columns(gh, (b,))
    accepted: list[tuple[Fraction, ...]] = []
    if all(y <= 0 for y in root[n]):  # the empty subset: every residual b_j >= 0
        accepted.append((Fraction(0),) * n)
    for subset, cols, prev, j in _subset_states(config, root, _required(gh, (b,))):
        col, fcol = cols[n], cols[j]
        p, yj = fcol[j], col[j]  # p = det, yj = det * y_j
        if yj < 0:
            continue
        if any((p * col[i] - fcol[i] * yj) // prev < 0 for i in subset[:-1]):
            continue
        if any((p * col[r] - fcol[r] * yj) // prev > 0 for r in range(n) if r not in subset):
            continue
        full = [Fraction(0)] * n
        for idx, y in zip(subset, _pivoted(col, fcol, prev, j, subset)):
            full[idx] = Fraction(y, p * lam)
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
        at = piece.value_at
        numeric += (hi - lo) / 6 * (at(lo) + 4 * at((lo + hi) / 2) + at(hi))
    exact = pp.integrate()
    return QuadratureReport(exact=exact, numeric=numeric, error=abs(exact - numeric), tol=tol)


# -- randomized engine/oracle agreement ----------------------------------


_MAX_DENOMINATOR = 10_000  # of a sampled parameter


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
    """Deterministic rational samples in (0, tau) with denominator <= 10^4.

    Each draw picks a denominator 2 <= q <= 10^4, then a numerator
    1 <= p < q * tau, bounding p by integer division; a q that admits no p
    is skipped. Some q admits one exactly when tau > 1/10^4, so a smaller
    tau raises ValueError instead of drawing forever.
    """
    if tau * _MAX_DENOMINATOR <= 1:
        raise ValueError(
            f"no sample with denominator <= {_MAX_DENOMINATOR} lies in (0, tau) "
            f"for tau = {format_rational(tau)}; tau must exceed 1/{_MAX_DENOMINATOR}"
        )
    rng = random.Random(seed)
    num, den = tau.numerator, tau.denominator
    out: list[Fraction] = []
    while len(out) < trials:
        q = rng.randint(2, _MAX_DENOMINATOR)
        p_max, rem = divmod(q * num, den)
        if rem == 0:  # p = q * tau itself is not below tau
            p_max -= 1
        if p_max >= 1:
            out.append(Fraction(rng.randint(1, p_max), q))
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
    against the pointwise brute force. A later sample whose table rows all
    carry the `n_affine` of its chamber agrees as a function of v and is
    not evaluated (see the module docstring); every other sample is
    evaluated on both sides, so a mismatch keeps its v and both negative
    parts. Like the table and brute force, it refuses a configuration of
    more than 16 curves with ValueError, before any sweep or pivot.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    table = SubsetTable(config, flag)
    decomp = decomposition_for(config, flag, decomp)
    mismatches: list[EquivalenceMismatch] = []
    ambiguous = 0
    samples = sample_parameters(decomp.tau, trials, seed)
    for i, v in enumerate(samples):
        if i:
            rows = table.rows_at(v)
            form = decomp.chamber_at(v).n_affine
            if rows and all(row.n_affine == form for row in rows):
                continue  # every row gives the sweep's N(v): no mismatch, no ambiguity
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
