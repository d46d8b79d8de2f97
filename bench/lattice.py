"""Wide configurations of degree-1 del Pezzo surfaces generated from E8.

The minimal resolution of a Du Val del Pezzo surface of degree 1 has Picard
lattice I_{1,8}: basis H, E1..E8 with H^2 = 1, Ei^2 = -1, and canonical
class K = -3H + E1 + ... + E8. Its exceptional classes (D^2 = -1, K.D = -1)
are the 240 images of E8 under the Weyl group W(E8) of K^perp, generated by
the reflections in the simple roots H - E1 - E2 - E3 and Ei - E(i+1)
(Manin, *Cubic Forms*, ch. IV). For an A_n singularity the (-2)-curves are
the chain of simple roots Ei - E(i+1), i = 1..n, and the (-1)-curves are the
exceptional classes that meet every root non-negatively.

A configuration names the roots E1..En in chain order and each (-1)-curve
L<k>, where k is the class's position in the sorted list of all 240. The
anticanonical class is written as (E + E')/2 with E a (-1)-curve orthogonal
to the roots and E' = -2K - E, which is again such a curve.

Everything here is exact integer arithmetic and independent of dpdelta;
`check_classes` and `check_config` certify the generator's output before
it is used.
"""
from __future__ import annotations

import random
from fractions import Fraction

Vector = tuple[int, ...]

CANONICAL: Vector = (-3, 1, 1, 1, 1, 1, 1, 1, 1)
SIMPLE_ROOTS: tuple[Vector, ...] = (
    (1, -1, -1, -1, 0, 0, 0, 0, 0),
) + tuple(
    tuple([0] + [1 if j == i else -1 if j == i + 1 else 0 for j in range(8)])
    for i in range(7)
)
MAX_CHAIN = 4
# Number of curves (roots plus (-1)-curves) on the configuration of type A_n.
CURVE_COUNTS = {0: 240, 1: 184, 2: 129, 3: 86, 4: 55}
PICARD_RANK = 9


def dot(x: Vector, y: Vector) -> int:
    """The intersection form of I_{1,8}."""
    return x[0] * y[0] - sum(a * b for a, b in zip(x[1:], y[1:]))


def exceptional_classes() -> tuple[Vector, ...]:
    """The W(E8)-orbit of E1, sorted: the 240 exceptional classes."""
    start: Vector = (0, 1, 0, 0, 0, 0, 0, 0, 0)
    seen = {start}
    todo = [start]
    while todo:
        x = todo.pop()
        for root in SIMPLE_ROOTS:
            c = dot(x, root)
            y = tuple(a + c * r for a, r in zip(x, root))
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return tuple(sorted(seen))


class LatticeConfig:
    """One generated configuration: named curves, their classes, -K's expansion."""

    def __init__(self, n_roots: int, seed: int):
        rng = random.Random(seed)
        classes = exceptional_classes()
        roots = SIMPLE_ROOTS[1 : n_roots + 1]  # E1 - E2, ..., En - E(n+1)
        minus_one = [e for e in classes if all(dot(e, r) >= 0 for r in roots)]
        orthogonal = [e for e in minus_one if all(dot(e, r) == 0 for r in roots)]
        e = rng.choice(orthogonal)
        e_dual = tuple(-2 * k - x for k, x in zip(CANONICAL, e))
        curves = [(f"E{i + 1}", r, "minus_two") for i, r in enumerate(roots)]
        curves += [(f"L{classes.index(c):03d}", c, "minus_one") for c in minus_one]
        rng.shuffle(curves)
        self.name = f"lattice-A{n_roots}"
        self.n_roots = n_roots
        self.names = tuple(c[0] for c in curves)
        self.classes = tuple(c[1] for c in curves)
        self.kinds = tuple(c[2] for c in curves)
        self.gram = tuple(tuple(dot(a, b) for b in self.classes) for a in self.classes)
        self.anti_k = tuple(
            Fraction(1, 2) if c in (e, e_dual) else Fraction(0) for c in self.classes
        )
        self.minus_one_names = tuple(
            nm for nm, kind in zip(self.names, self.kinds) if kind == "minus_one"
        )

    def to_json(self) -> dict:
        """The configuration in dpdelta's JSON layout."""
        return {
            "name": self.name,
            "norm": "1",
            "smooth_surface": True,
            "curves": [
                {"name": nm, "self_int": str(self.gram[i][i]), "kind": kind}
                for i, (nm, kind) in enumerate(zip(self.names, self.kinds))
            ],
            "gram": [[str(x) for x in row] for row in self.gram],
            "anti_k": [str(x) for x in self.anti_k],
            "discrepancy": {},
            "points": [],
        }


def inertia(gram: tuple[tuple[int, ...], ...]) -> tuple[int, int, int]:
    """Exact (positive, negative, zero) eigenvalue counts of an integer form.

    Fraction-free symmetric elimination (Bareiss) on diagonal pivots: after
    each step an entry is a minor of the form, so every division is exact.
    The signs of the nested principal minors 1, d1, d2, ... give the
    inertia of the pivoted block (Jacobi), and the elimination stops when
    the remaining Schur complement is zero, so that block carries all of it.
    """
    a = [list(row) for row in gram]
    active = list(range(len(a)))
    prev = 1
    pos = neg = 0
    while True:
        k = next((i for i in active if a[i][i] != 0), None)
        if k is None:
            if any(a[i][j] for i in active for j in active):
                raise ArithmeticError("zero diagonal with a nonzero complement")
            return pos, neg, len(active)
        pivot = a[k][k]
        if (pivot > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        active.remove(k)
        row_k = a[k]
        for i in active:
            row_i = a[i]
            f = row_i[k]
            for j in active:
                row_i[j] = (pivot * row_i[j] - f * row_k[j]) // prev
        prev = pivot


def check_classes(classes: tuple[Vector, ...]) -> list[str]:
    """Problems with the exceptional classes; empty when all hold."""
    problems = []
    if len(classes) != 240:
        problems.append(f"{len(classes)} exceptional classes, expected 240")
    bad = [c for c in classes if dot(c, c) != -1 or dot(CANONICAL, c) != -1]
    if bad:
        problems.append(f"{len(bad)} classes fail D^2 = -1 and K.D = -1")
    return problems


def check_config(config: LatticeConfig) -> list[str]:
    """Problems with one generated configuration; empty when all hold."""
    problems = []
    want = CURVE_COUNTS[config.n_roots]
    if len(config.names) != want:
        problems.append(f"{config.name}: {len(config.names)} curves, expected {want}")
    pos, neg, _ = inertia(config.gram)
    if pos + neg != PICARD_RANK or pos != 1:
        problems.append(
            f"{config.name}: Gram rank {pos + neg} with {pos} positive eigenvalues, "
            f"expected rank {PICARD_RANK} with exactly 1 (Hodge index)"
        )
    return problems
