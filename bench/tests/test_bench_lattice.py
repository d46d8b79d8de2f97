"""The E8 lattice generator's invariants and its exact inertia."""
from __future__ import annotations

import pytest

import dpdelta
import lattice


def test_exceptional_classes_are_the_240():
    classes = lattice.exceptional_classes()
    assert len(classes) == 240 == len(set(classes))
    assert all(lattice.dot(c, c) == -1 for c in classes)
    assert all(lattice.dot(lattice.CANONICAL, c) == -1 for c in classes)
    assert lattice.check_classes(classes) == []


def test_check_classes_reports_a_wrong_class():
    classes = lattice.exceptional_classes()
    assert lattice.check_classes(classes[:-1] + ((1, 0, 0, 0, 0, 0, 0, 0, 0),))


@pytest.mark.parametrize("n_roots, curves", sorted(lattice.CURVE_COUNTS.items()))
def test_generated_config(n_roots, curves):
    generated = lattice.LatticeConfig(n_roots, seed=5)
    assert len(generated.names) == curves
    assert lattice.check_config(generated) == []
    assert lattice.inertia(generated.gram) == (1, 8, curves - 9)
    # -K = (E + E')/2 as a class of I_{1,8}.
    minus_k = [
        sum(c * v[i] for c, v in zip(generated.anti_k, generated.classes))
        for i in range(9)
    ]
    assert minus_k == [-k for k in lattice.CANONICAL]
    config = dpdelta.config_from_json(generated.to_json())
    assert dpdelta.config.validate(config).ok


def test_counts_in_the_a_n_chain():
    assert lattice.CURVE_COUNTS == {0: 240, 1: 184, 2: 129, 3: 86, 4: 55}


def test_seed_permutes_curve_order_only():
    a = lattice.LatticeConfig(2, seed=1)
    b = lattice.LatticeConfig(2, seed=2)
    assert a.names != b.names
    assert sorted(a.names) == sorted(b.names)


@pytest.mark.parametrize(
    "gram, expected",
    [
        (((1, 0, 0), (0, -1, 0), (0, 0, -1)), (1, 2, 0)),
        (((2, 0, 0), (0, 3, 0), (0, 0, -1)), (2, 1, 0)),
        (((-1, 2), (2, -1)), (1, 1, 0)),
        (((1, 1), (1, 1)), (1, 0, 1)),
        (((-2, 1, 0), (1, -2, 1), (0, 1, -2)), (0, 3, 0)),
        (((0, 0), (0, 0)), (0, 0, 2)),
    ],
)
def test_inertia_small_forms(gram, expected):
    assert lattice.inertia(gram) == expected


def test_inertia_refuses_a_hyperbolic_plane_it_cannot_pivot():
    with pytest.raises(ArithmeticError):
        lattice.inertia(((0, 1), (1, 0)))


def test_check_config_reports_a_second_positive_eigenvalue():
    generated = lattice.LatticeConfig(4, seed=3)
    gram = [list(row) for row in generated.gram]
    gram[0][0] = 5
    generated.gram = tuple(tuple(row) for row in gram)
    assert any("Hodge index" in p for p in lattice.check_config(generated))
