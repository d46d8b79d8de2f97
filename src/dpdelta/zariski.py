"""Parametric Zariski decompositions of anti_k - v*F, exactly over Q.

For a flag curve F the divisor D(v) = anti_k - v*F is decomposed as
D = P(v) + N(v) with P(v) nef, N(v) supported on a negative-definite set of
curves orthogonal to P(v). The support is locally constant in v, so the
decomposition is a finite list of chambers on which every negative-part
coefficient is an affine polynomial and P(v)^2 is a quadratic. The sweep
starts at v = 0 and pivots the support at each breakpoint until P^2 hits 0
at the pseudoeffective threshold tau.

The sweep decides on integers end to end. The configuration owns the
integer form: its Gram matrix as mu * gram (`int_gram`) and its (-K).C row
over one denominator, both built with the configuration. Each support
system is solved by the integer `linalg.solve` on those Gram rows. Its
pivots certify the support negative definite, as Zariski supports are,
and it gives N as integer numerators over det(-gram_S); one pass of
integer dot products over the support's Gram rows gives P.C for every curve
C as an integer affine numerator over one positive denominator. Each
breakpoint's pivot starts from the rows of the chamber just left, so that
support is never solved twice. Because distinct curves meet nonnegatively,
the only curve that ever leaves a support is the flag, once its own
coefficient falls to 0; after that the pivot only adds curves, and it
looks for them only in the tight set: the curves that chamber's P meets in
0 at the breakpoint. Every support the pivot visits there gives the same N
at the breakpoint, so no other curve can go negative right after it
(`_pivot` has both arguments, and tests every curve when -K is not nef at
v = 0). With each round's adds the pivot also takes the tight curves that
round's P meets identically in 0 and that a chain of positive meets joins
to the adds, such as the rest of a (-2)-chain one of whose ends goes
negative: later rounds would add them one link per solve. The one scan of
a chamber's rows that finds its end also finds that set: every row of a
chamber is nonnegative on [lo, hi], so the curves P meets in 0 at hi are
those whose P.C row is identically 0 (the support's among them) and those
whose falling P.C row has its root at hi. The flag's exit, the adds and
the chamber's end are decided by integer signs and comparisons at v = p/q,
and the threshold tau (or an irrational root) by `math.isqrt` and sign
tests on P^2 as an integer `Poly`. A chamber is its two ends, these integer rows and P^2, nothing
else: `delta` integrates S and S(W;O) on them, `negative_at` evaluates N
on them, and a chamber's support names, N coefficients and P.C rows are
built from the rows only for JSON and CLI text. The sweep builds `Poly`s
only for D(v)^2 and each chamber's P^2, and Fractions only for the
chamber ends and error messages.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .config import SurfaceConfig
from .errors import IrrationalRoot, NotPseudoEffective, OutOfDomain
from .linalg import solve
from .poly import PiecewisePoly, Poly
from .rationals import AffineVector, RatLike, affine_vector, format_rational, parse_rational

_MAX_CHAMBERS = 64


@dataclass(frozen=True, eq=False)
class Chamber:
    """One maximal interval [lo, hi] with constant negative-part support.

    A chamber stores only the sweep's integer rows: `rows` (N on the support
    and P.C for every curve, as affine numerators) and `p_sq` (P^2 as an
    integer quadratic), which `delta` integrates. `support` and `n_coeffs`
    (the affine coefficient of each support curve) are views built from the
    rows on first read; `p_dot_at` builds one curve's P.C row, for callers
    that print only the flag's. `n_affine` is N(v) in the canonical integer
    form the oracle compares its table rows with. Chambers compare by
    identity.
    """

    lo: Fraction
    hi: Fraction
    rows: _Rows = field(repr=False)
    p_sq: Poly

    @cached_property
    def support(self) -> tuple[str, ...]:
        names = self.rows.curve_names
        return tuple(names[s] for s in self.rows.support)

    @cached_property
    def n_coeffs(self) -> dict[str, Poly]:
        rows = self.rows
        return {
            name: Poly(a0, a1, 0, rows.n_den)
            for name, a0, a1 in zip(self.support, rows.x0, rows.x1)
        }

    @cached_property
    def n_affine(self) -> AffineVector:
        """N(v) on this chamber in the canonical form of `rationals.affine_vector`."""
        rows = self.rows
        return affine_vector(rows.support, rows.x0, rows.x1, rows.n_den)

    def p_dot_at(self, j: int) -> Poly:
        """P(v).C for the curve of index j."""
        rows = self.rows
        return Poly(rows.c0[j], rows.c1[j], 0, rows.p_den)


@dataclass(frozen=True, eq=False)
class Decomposition:
    """All chambers of v -> Zariski(anti_k - v*flag) on [0, tau]."""

    config: SurfaceConfig
    flag: str
    chambers: tuple[Chamber, ...]

    @property
    def tau(self) -> Fraction:
        """The pseudoeffective threshold: the last chamber's end."""
        return self.chambers[-1].hi

    def chamber_at(self, v: RatLike) -> Chamber:
        """The first chamber whose end is at or after v; OutOfDomain off [0, tau]."""
        return self._chamber(parse_rational(v))

    def _chamber(self, v: Fraction) -> Chamber:
        """`chamber_at` for a parsed v, comparing v = p/q with each end on integers."""
        p, q = v.numerator, v.denominator
        tau = self.tau
        if p < 0 or p * tau.denominator > tau.numerator * q:
            raise OutOfDomain(
                f"v = {format_rational(v)} outside [0, {format_rational(tau)}]"
            )
        for ch in self.chambers:
            hi = ch.hi
            if p * hi.denominator <= hi.numerator * q:
                return ch

    def negative_at(self, v: RatLike) -> dict[str, Fraction]:
        """The nonzero negative-part coefficients at v, read off the chamber's
        rows, in curve order."""
        v = parse_rational(v)
        rows = self._chamber(v).rows
        p, q, names = v.numerator, v.denominator, rows.curve_names
        return {
            names[s]: c
            for s, x0, x1 in zip(rows.support, rows.x0, rows.x1)
            if (c := Fraction(x0 * q + x1 * p, rows.n_den * q))
        }

    def breakpoints(self) -> list[Fraction]:
        """The chamber ends, from 0 to tau."""
        return [self.chambers[0].lo] + [ch.hi for ch in self.chambers]

    def p_sq_piecewise(self) -> PiecewisePoly:
        """P(v)^2 on [0, tau], each chamber's integer quadratic."""
        return PiecewisePoly(self.breakpoints(), [ch.p_sq for ch in self.chambers])


# -- parametric sweep ---------------------------------------------------


def parametric_decompose(config: SurfaceConfig, flag: str) -> Decomposition:
    """Chamber structure of v -> Zariski(anti_k - v*flag) for v in [0, tau].

    A NotPseudoEffective or IrrationalRoot raised by the sweep names the
    support involved, and leaves here also naming the configuration, the
    flag and the index of the chamber being built.
    """
    direction = _direction(config, flag)
    chambers: list[Chamber] = []
    v_cur = Fraction(0)
    rows = _rows(direction, (), [], [], 1)  # the empty support: N = 0
    # P.C = D(0).C at v = 0: every curve is tight if one is negative
    b0 = direction.b0
    tight = range(len(b0)) if min(b0) < 0 else [j for j, b in enumerate(b0) if not b]
    try:
        while len(chambers) < _MAX_CHAMBERS:
            rows = _pivot(direction, rows, v_cur, tight)
            p_sq = _positive_part(direction, rows)
            hi, tight = _chamber_end(rows, p_sq, v_cur)
            chambers.append(Chamber(v_cur, hi, rows, p_sq))
            if tight is None:  # hi is tau
                return Decomposition(config, flag, tuple(chambers))
            v_cur = hi
        raise NotPseudoEffective(
            f"chamber sweep did not terminate after v = {format_rational(v_cur)}, "
            f"{_support_text(rows.curve_names, rows.support)}"
        )
    except (NotPseudoEffective, IrrationalRoot) as exc:
        raise type(exc)(
            f"{exc}; config {config.name}, flag {flag}, chamber {len(chambers)}"
        ) from exc


def decomposition_for(
    config: SurfaceConfig, flag: str, decomp: Decomposition | None = None
) -> Decomposition:
    """`decomp` if it is the sweep of `flag` on `config`; a new sweep if None.

    A decomposition of another flag or another configuration raises
    ValueError naming both, instead of silently answering for them.
    """
    if decomp is None:
        return parametric_decompose(config, flag)
    if decomp.flag != flag:
        raise ValueError(
            f"decomposition of flag {decomp.flag} passed for flag {flag} "
            f"on config {config.name}"
        )
    if decomp.config is not config:
        raise ValueError(
            f"decomposition swept on config {decomp.config.name} passed for "
            f"another config {config.name}, flag {flag}"
        )
    return decomp


def _support_text(names: Sequence[str], support: Iterable[int]) -> str:
    return f"support ({', '.join(names[s] for s in support)})"


# -- integer rows ----------------------------------------------------------


class _Direction(NamedTuple):
    """D(v) = anti_k - v*flag on one configuration, as integer rows.

    mu * scale * D(v).C_j = b0[j] + b1[j]*v for every curve j, where mu is
    the configuration's Gram denominator and scale = `anti_k_dots_den`.
    """

    config: SurfaceConfig
    flag: int
    b0: list[int]
    b1: list[int]
    d_sq: Poly


def _direction(config: SurfaceConfig, flag: str) -> _Direction:
    fi = config.index(flag)
    mu, scale = config.mu, config.anti_k_dots_den
    b0 = [mu * k for k in config.int_anti_k_dots]
    b1 = [-scale * g for g in config.int_gram[fi]]
    d_coeffs = (config.norm, -2 * config.anti_k_dots[fi], config.gram[fi][fi])
    return _Direction(config, fi, b0, b1, Poly.from_fractions(d_coeffs))


class _Rows(NamedTuple):
    """One support's affine rows as integer numerators over positive denominators.

    N_s(v) = (x0[i] + x1[i]*v) / n_den for the i-th support index s, and
    P(v).C_j = (c0[j] + c1[j]*v) / p_den for every curve j, named
    `curve_names[j]` (the configuration's own tuple).
    """

    curve_names: tuple[str, ...]
    support: tuple[int, ...]
    x0: list[int]
    x1: list[int]
    n_den: int
    c0: list[int]
    c1: list[int]
    p_den: int


def _rows(
    direction: _Direction,
    support: Sequence[int],
    x0: list[int],
    x1: list[int],
    d: int,
) -> _Rows:
    """The rows of the negative part with scale * N_s(v) = (x0[i] + x1[i]*v) / d.

    d * mu * scale * P.C_j = d * b_j - sum_s x_s * (mu * C_s.C_j) for every
    j: one pass of integer dot products over the support's Gram rows, the
    first of which also scales b by d. The empty support with d = 1 shares
    the direction's own b lists, which nothing mutates.
    """
    config = direction.config
    gram = config.int_gram
    c0, c1 = direction.b0, direction.b1
    if support:
        g, a0, a1 = gram[support[0]], x0[0], x1[0]
        c0 = [d * b - a0 * x for b, x in zip(c0, g)]
        c1 = [d * b - a1 * x for b, x in zip(c1, g)]
    elif d != 1:
        c0 = [d * b for b in c0]
        c1 = [d * b for b in c1]
    for i in range(1, len(support)):
        g, a0, a1 = gram[support[i]], x0[i], x1[i]
        if a0:
            c0 = [c - a0 * x for c, x in zip(c0, g)]
        if a1:
            c1 = [c - a1 * x for c, x in zip(c1, g)]
    n_den = d * config.anti_k_dots_den
    return _Rows(config.curve_names, tuple(support), x0, x1, n_den, c0, c1, n_den * config.mu)


def _sign_after(c0: int, c1: int, p: int, q: int) -> int:
    """Sign of c0 + c1*v immediately to the right of v = p/q, with q > 0.

    The sign of the value decides; at a root, the sign of the slope.
    """
    value = c0 * q + c1 * p
    if value:
        return 1 if value > 0 else -1
    return (c1 > 0) - (c1 < 0)


def _solve_support(direction: _Direction, support: tuple[int, ...], v: Fraction) -> _Rows:
    """Rows of the solution of gram_S N = D_S on the support S, solved at v.

    The system is solved as (mu * gram_S) y = mu * scale * D_S, so
    y = scale * N. A gram_S that is not negative definite raises
    NotPseudoEffective naming v and the support.
    """
    gram = direction.config.int_gram
    matrix = [[gram[a][b] for b in support] for a in support]
    rhs = [[direction.b0[a] for a in support], [direction.b1[a] for a in support]]
    try:
        d, (x0, x1) = solve(matrix, rhs)
    except ValueError:
        raise NotPseudoEffective(
            f"support not negative definite at v = {format_rational(v)}, "
            f"{_support_text(direction.config.curve_names, support)}"
        ) from None
    return _rows(direction, support, x0, x1, d)


def _pivot(direction: _Direction, seed: _Rows, v: Fraction, tight: Sequence[int]) -> _Rows:
    """Find the valid support just right of v, starting from a seed's rows.

    Validity is checked on the lexicographic pair (value at v, slope), in
    integers: a support coefficient must be positive immediately after v
    and a non-support curve must meet the residual nonnegatively
    immediately after v. The seed is the previous chamber's rows, so its
    support is not solved again. If the flag F is in the seed's support and
    its coefficient is not positive right after v, the seed is solved again
    without it; that is the only curve that ever leaves. Then every pass
    checks that each support coefficient is positive right after v, and
    adds the curves on which P is negative right after v, with their
    closure (below), until there are none. Returns the rows of that last
    support.

    Curves are added only from `tight`, the set T of curves the seed's P
    meets in 0 at v, which the caller gives; the pivot does not walk the
    seed's rows for it. At v = 0 the seed is the empty support and T is
    read off D(0).C: when some value is negative (-K is not nef), T is
    every curve. At a later v the seed is the previous chamber, whose end
    scan returns T: every row of that chamber is nonnegative on [lo, v],
    so T is its identically 0 P.C rows (the support's among them) plus its
    falling P.C rows with root v. The seed's N and P.C are then both
    nonnegative at v, so every support the loop visits contains the
    support of the seed's N(v) and lies inside T. Each solve then gives the
    seed's N(v) at v, so a curve outside T keeps P(v).C > 0 right after v
    and is never added: the loop visits exactly the supports, and raises
    exactly the errors, of the same loop over every curve.

    Why only the flag leaves, and why the loop ends. Write G for the Gram
    matrix; `config.validate` checks that distinct curves meet
    nonnegatively, so on a negative-definite support S, -G_S is a
    nonsingular M-matrix and (-G_S)^-1 >= 0 entrywise (Berman-Plemmons,
    Nonnegative Matrices in the Mathematical Sciences, ch. 6).

    (a) On a chamber with support S, G_S N = D_S(v) = D_S(0) - v*G_{S,F},
        so dN/dv = (-G_S)^-1 G_{S,F}. If F is not in S, G_{S,F} >= 0 and
        every N row is nondecreasing. If F is in S, G_{S,F} is the F column
        of G_S, so the slope is -e_F: P is constant and only N_F falls. So
        at a chamber end only the flag's coefficient can reach 0, and the
        seed without F gives the seed's N(v) at v, positive on what is left.
    (b) An add keeps every coefficient positive. Let J be the support, x
        its coefficients, A the add set, so w_C = P_J.C < 0 right after v
        for C in A, and J' = J + A. Then G_{J'} (x' - (x_J, 0)) = (0, w_A),
        so x' - (x_J, 0) = (-G_{J'})^-1 (0, -w_A) >= 0, and > 0 on A, since
        an M-matrix inverse has a positive diagonal. The matrix is rational
        and nonnegative, so this holds for (value, slope) pairs in their
        lexicographic order too.
    (b') The closure only skips solves. Let Z be the curves off J whose
        P_J.C row is identically 0 and that a path of such curves, each
        meeting the next positively (the sign rule's G > 0 entries), joins
        to A. By (b) each curve a of A gets a positive coefficient right
        after v, so a curve z of Z meeting a positively has P.z < 0 right
        after v on J + A, and the loop without the closure adds z next
        round; by induction along the paths it adds all of Z, one link per
        round. The pivot adds A + Z at once and solves once: on
        J' = J + A + Z, x' - (x_J, 0, 0) = (-G_{J'})^-1 (0, -w_A, 0) is
        positive on Z too, since (-G_{J'})^-1 is positive between curves
        joined inside J' (an irreducible M-matrix block has a positive
        inverse) and every z is joined to A. The valid support right
        after v is unique, so the rows, P^2 and chambers are those of the
        loop without the closure; a support that is not negative
        definite is named as the larger system solved. Only G > 0 entries
        are followed, so no curve is added through a negative meet where
        the sign rule fails; the positivity check after the solve still
        names any coefficient that is not positive.
    (c) The loop ends: every pass that does not return adds at least one
        curve, so there are at most n + 1 solves on n curves. With the
        closure, a chain of k zero-row curves hanging off an add costs one
        solve, not k; over the catalog's curve sweeps no pivot solves more
        than once.

    This is Chandrasekaran's add-only method for a linear complementarity
    problem with a Z-matrix (Opsearch 7, 1970), which is also how Bauer
    builds N (J. Algebraic Geom. 18, 2009). A configuration that breaks the
    sign rule can break (a) or (b); the positivity check then raises
    NotPseudoEffective naming the curve, its coefficient at v, v and the
    support, instead of looping or answering wrongly.
    """
    p, q = v.numerator, v.denominator
    rows, fi = seed, direction.flag
    if fi in seed.support:
        i = seed.support.index(fi)
        if _sign_after(seed.x0[i], seed.x1[i], p, q) <= 0:
            rows = _solve_support(direction, seed.support[:i] + seed.support[i + 1 :], v)
    while True:
        for s, a0, a1 in zip(rows.support, rows.x0, rows.x1):
            if _sign_after(a0, a1, p, q) <= 0:
                names, at = direction.config.curve_names, Fraction(a0 * q + a1 * p, rows.n_den * q)
                raise NotPseudoEffective(
                    f"N coefficient of {names[s]} is {format_rational(at)} at v = "
                    f"{format_rational(v)}, not positive right after it (the sweep assumes "
                    "distinct curves meet nonnegatively, as config.validate checks), "
                    f"{_support_text(names, rows.support)}"
                )
        inside, c0, c1 = set(rows.support), rows.c0, rows.c1
        add = {j for j in tight if j not in inside and _sign_after(c0[j], c1[j], p, q) < 0}
        if not add:
            return rows
        # the closure: zero-row tight curves joined to the adds by positive meets
        zero = {j for j in tight if j not in inside and not c0[j] and not c1[j]}
        gram, reached = direction.config.int_gram, list(add)
        while reached and zero:
            row = gram[reached.pop()]
            near = {z for z in zero if row[z] > 0}
            zero -= near
            add |= near
            reached += near
        rows = _solve_support(direction, tuple(sorted(inside | add)), v)


def _positive_part(direction: _Direction, rows: _Rows) -> Poly:
    """P^2 on a chamber: D^2 - N.D, as P.N = 0, with N.D summed on integers."""
    q0 = q1 = q2 = 0
    for s, a0, a1 in zip(rows.support, rows.x0, rows.x1):
        b0, b1 = direction.b0[s], direction.b1[s]
        q0 += a0 * b0
        q1 += a0 * b1 + a1 * b0
        q2 += a1 * b1
    den = rows.n_den * direction.config.mu * direction.config.anti_k_dots_den
    d = direction.d_sq
    return Poly(
        d.a0 * den - q0 * d.den, d.a1 * den - q1 * d.den, d.a2 * den - q2 * d.den, d.den * den
    )


def _first_root_after(rows: _Rows, lo: Fraction) -> tuple[Fraction | None, list[int]]:
    """Smallest root > lo of a falling row, and the curves whose P.C is 0 there.

    The rows are N_s on the support and P.C off it; P.C vanishes identically
    on the support, so its rows there never fall. Every row of a chamber is
    nonnegative just right of lo, where its support is valid, so every row
    is nonnegative on [lo, hi] for hi the returned root, and the P.C rows
    that vanish at hi are exactly the identically 0 ones (the support's
    among them) and the falling ones whose root is hi. One pass collects
    both: a falling P.C row that ties the best root so far joins the ties,
    and a row that beats it starts them over. A falling row whose root is
    at or before lo is skipped; that is tested only for a row that would
    beat the best. With no root after lo, the root is None and the set is
    the zero rows.
    """
    ln, ld = lo.numerator, lo.denominator
    bn, bd = 1, 0  # the best root c0 / -c1 as (numerator, denominator); 1/0 is +infinity
    for c0, c1 in zip(rows.x0, rows.x1):
        if c1 < 0 and c0 * bd < -c1 * bn and c0 * ld > -c1 * ln:
            bn, bd = c0, -c1
    zero: list[int] = []
    ties: list[int] = []
    for j, (c0, c1) in enumerate(zip(rows.c0, rows.c1)):
        if c1 < 0:
            beat = c0 * bd + c1 * bn  # the sign of (root - best)
            if beat < 0:
                if c0 * ld > -c1 * ln:
                    bn, bd = c0, -c1
                    ties = [j]
            elif not beat:
                ties.append(j)
        elif not c1 and not c0:
            zero.append(j)
    if not bd:
        return None, zero
    return Fraction(bn, bd), zero + ties


def _chamber_end(
    rows: _Rows, p_sq: Poly, lo: Fraction
) -> tuple[Fraction, list[int] | None]:
    """Smallest v > lo at which the support changes or P^2 vanishes.

    Returns (hi, tight): tight is None when hi is the pseudoeffective
    threshold tau, and otherwise the curves the chamber's P meets in 0 at
    hi, which the next pivot tests for adds (see `_first_root_after`).
    Support-change candidates come from the sign flips of the chamber's
    affine rows (N_i on the support, P.C off it), which always happen at
    rational points. If P^2 stays positive up to the first of them, the
    chamber ends there. Otherwise the first root of P^2 at or after lo is
    the threshold if it comes no later than the change; it must be rational
    or the sweep raises IrrationalRoot. Both are decided on the chamber's
    integer quadratic.
    """
    affine_next, tight = _first_root_after(rows, lo)
    if affine_next is not None and p_sq.sign_on(lo, affine_next) > 0:
        return affine_next, tight
    try:
        tau = p_sq.first_root(lo)
    except IrrationalRoot as exc:
        raise IrrationalRoot(f"{exc}, {_support_text(rows.curve_names, rows.support)}") from exc
    if tau == lo:
        raise NotPseudoEffective(
            f"P^2 already vanishes at v = {format_rational(lo)}, "
            f"{_support_text(rows.curve_names, rows.support)}"
        )
    if tau is not None and (affine_next is None or tau <= affine_next):
        return tau, None
    if affine_next is None:
        raise NotPseudoEffective(
            f"no chamber end found after v = {format_rational(lo)}, "
            f"{_support_text(rows.curve_names, rows.support)}"
        )
    return affine_next, tight


# -- serialization -------------------------------------------------------


def decomposition_to_json(decomp: Decomposition) -> dict:
    """JSON-ready dict of the chamber structure, with rationals as strings.

    Polynomials are lists of ascending coefficients; `p_dot` is the row of
    the flag curve only, since every other row can be recomputed from the
    support coefficients.
    """
    fi = decomp.config.index(decomp.flag)
    return {
        "config": decomp.config.name,
        "flag": decomp.flag,
        "tau": format_rational(decomp.tau),
        "chambers": [
            {
                "lo": format_rational(ch.lo),
                "hi": format_rational(ch.hi),
                "support": list(ch.support),
                "n_coeffs": {name: ch.n_coeffs[name].to_strings() for name in ch.support},
                "p_sq": ch.p_sq.to_strings(),
                "p_dot": ch.p_dot_at(fi).to_strings(),
            }
            for ch in decomp.chambers
        ],
    }
