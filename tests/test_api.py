"""The package's public names."""
from __future__ import annotations

from collections import Counter

import dpdelta


def test_every_exported_name_is_listed_once_and_resolves():
    repeated = [name for name, count in Counter(dpdelta.__all__).items() if count > 1]
    assert repeated == []
    assert [name for name in dpdelta.__all__ if not hasattr(dpdelta, name)] == []
    namespace: dict = {}
    exec("from dpdelta import *", namespace)
    assert set(dpdelta.__all__) <= set(namespace)


def test_removed_names_stay_removed():
    for name in ("subset_table", "negative_definite_subsets"):
        assert name not in dpdelta.__all__
        assert not hasattr(dpdelta, name)
        assert not hasattr(dpdelta.oracle, name)
    assert not hasattr(dpdelta.linalg, "eliminate")
    for name in ("base_delta", "threefold_delta_bound"):
        assert name not in dpdelta.__all__
        assert not hasattr(dpdelta, name)
        assert not hasattr(dpdelta.applications, name)
    for module, name in (
        (dpdelta.zariski, "NegativePart"),
        (dpdelta.config, "DivisorClass"),
        (dpdelta.config, "intersect"),
        (dpdelta.catalog, "verify_all"),
        (dpdelta.poly, "IntQuadratic"),
        (dpdelta.applications, "row_assignments"),
        (dpdelta.oracle, "Bound"),
        (dpdelta.oracle, "_passes"),
        (dpdelta.oracle, "_unbounded"),
        (dpdelta.poly, "_as_fraction"),
    ):
        assert name not in dpdelta.__all__
        assert not hasattr(dpdelta, name)
        assert not hasattr(module, name)
    for cls, name in (
        (dpdelta.SurfaceConfig, "basis_vector"),
        (dpdelta.SurfaceConfig, "anti_k_divisor"),
        (dpdelta.FlagReport, "render"),
        (dpdelta.Chamber, "p_dot"),
        (dpdelta.Poly, "poly"),
    ):
        assert not hasattr(cls, name)
