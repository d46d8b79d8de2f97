"""Blowup bookkeeping on the lattice level."""
from __future__ import annotations

from fractions import Fraction

import pytest

from dpdelta import (
    InconsistentIncidence,
    NotSmooth,
    PointSpec,
    SchemaError,
    blowup,
    config_to_json,
)
from dpdelta.config import validate

F = Fraction


def test_stored_blowups_are_reproduced(records):
    """Every catalog configuration marked as a blowup matches a recomputation."""
    specs = [
        (case, spec)
        for case, record in records.items()
        for spec in record.blowups
    ]
    assert len(specs) == 3
    for case, spec in specs:
        record = records[case]
        result = blowup(
            record.config(spec.source),
            spec.point,
            e_p_name=spec.e_p_name,
            name=spec.name,
        )
        stored = record.config(spec.result)
        recomputed = result.config.with_points(stored.points)
        assert config_to_json(recomputed) == config_to_json(stored)
        assert result.a_e_p == spec.a_e_p
        assert result.pullback_coeff == spec.pullback_coeff


def test_expected_blowup_invariants(records):
    by_case = {
        case: record.blowups[0] for case, record in records.items() if record.blowups
    }
    assert by_case["A2-nodal"].a_e_p == 2
    assert by_case["A2-nodal"].pullback_coeff == 2
    assert by_case["A2-cuspidal"].a_e_p == 2
    assert by_case["A2-cuspidal"].pullback_coeff == 3
    assert by_case["A4"].a_e_p == 2
    assert by_case["A4"].pullback_coeff == F(5, 2)


def self_ints(cfg) -> dict:
    """Each curve's self-intersection, read off the Gram diagonal."""
    return {c: cfg.gram[i][i] for i, c in enumerate(cfg.curve_names)}


def test_corner_blowup_by_hand(a2_nodal):
    base = a2_nodal.config("base")
    result = blowup(base, "corner")  # on E1, meeting E2 once
    cfg = result.config
    assert cfg.name == "A2-nodal^corner"
    assert cfg.curve_names == ("C", "E1", "E2", "EP")
    # E1 and E2 pass through the center; C misses it and keeps its square
    assert self_ints(cfg) == {"C": -1, "E1": -3, "E2": -3, "EP": -1}
    e1, e2, ep = cfg.index("E1"), cfg.index("E2"), cfg.index("EP")
    assert cfg.gram[e1][e2] == 0  # strict transforms are separated
    assert cfg.gram[e1][ep] == 1 and cfg.gram[e2][ep] == 1
    assert cfg.anti_k == (1, 1, 1, 2)
    assert cfg.discrepancy_of("EP") == 2
    assert result.a_e_p == 2
    assert result.pullback_coeff == 2
    assert cfg.points == ()
    assert validate(cfg).ok


def test_point_spec_and_id_agree(a2_nodal):
    base = a2_nodal.config("base")
    by_id = blowup(base, "corner")
    by_spec = blowup(base, base.point("corner"))
    assert config_to_json(by_id.config) == config_to_json(by_spec.config)


def test_free_point_blowup(a1_nodal, intersect):
    free = PointSpec("free", "")
    result = blowup(a1_nodal, free, e_p_name="E0", name="once")
    cfg = result.config
    assert cfg.curve_names == ("C", "E", "E0")
    assert cfg.gram[cfg.index("E0")] == (F(0), F(0), F(-1))
    assert result.pullback_coeff == 0
    assert result.a_e_p == 2
    # pulled-back anti_k misses the new curve, so its square is unchanged
    assert intersect(cfg, cfg.anti_k, cfg.anti_k) == a1_nodal.norm


def test_smooth_point_on_one_curve(a1_nodal):
    result = blowup(a1_nodal, "generic")  # on E, no other incidences
    cfg = result.config
    assert self_ints(cfg) == {"C": -1, "E": -3, "EP": -1}
    assert result.pullback_coeff == 1
    assert result.a_e_p == 2


def test_orbifold_sources_are_refused(a1_cuspidal):
    with pytest.raises(
        NotSmooth, match="cannot blow up the orbifold configuration A1-cuspidal"
    ):
        blowup(a1_cuspidal, "at_cbar")


def test_name_collision(a1_nodal):
    with pytest.raises(
        InconsistentIncidence, match="name 'C' already used by a curve of A1-nodal"
    ):
        blowup(a1_nodal, "node", e_p_name="C")


def test_bad_multiplicities(a1_nodal):
    for m in (0, True):  # True is an int to Python, but no multiplicity
        with pytest.raises(
            InconsistentIncidence, match="multiplicity of C at bad must be a positive integer"
        ):
            blowup(a1_nodal, PointSpec("bad", "E", {"C": m}))
    with pytest.raises(
        InconsistentIncidence,
        match="flag curve E must pass through bad2 with multiplicity 1",
    ):
        blowup(a1_nodal, PointSpec("bad2", "E", {"E": 2}))


def test_incidence_exceeding_global_intersection(a1_nodal):
    with pytest.raises(
        InconsistentIncidence,
        match="curves C and E meet 2 times globally but 3 times at bad",
    ):
        blowup(a1_nodal, PointSpec("bad", "E", {"C": 3}))


def test_tangency_within_global_budget(a1_nodal):
    # C meets E twice globally, so a single tangent contact of order 2 is legal
    result = blowup(a1_nodal, PointSpec("tangent", "E", {"C": 2}))
    cfg = result.config
    assert self_ints(cfg)["C"] == -1 - 4
    assert cfg.gram[cfg.index("C")][cfg.index("E")] == 0
    assert cfg.gram[cfg.index("C")][cfg.index("EP")] == 2
    assert result.pullback_coeff == 2 + 1


def test_unknown_incident_curve(a1_nodal):
    # an unknown incident curve, and an unknown curve the point lies on
    for point in (PointSpec("bad", "E", {"Z": 1}), PointSpec("bad", "Z")):
        with pytest.raises(SchemaError, match="^unknown curve 'Z' in config A1-nodal$"):
            blowup(a1_nodal, point)


def test_pullbacks_preserve_intersections(a2_nodal, intersect):
    """pi^* C_i . pi^* C_j agrees with the source Gram matrix."""
    spec = a2_nodal.blowups[0]
    source = a2_nodal.config(spec.source)
    result = blowup(source, spec.point, e_p_name=spec.e_p_name, name=spec.name)
    new = result.config
    ep = new.index(spec.e_p_name)
    pullbacks = {name: [int(c == name) for c in new.curve_names] for name in source.curve_names}
    for name, d in pullbacks.items():
        d[ep] = new.gram[new.index(name)][ep]  # pi^* C = C + (C.E_p) E_p
    for a in source.curve_names:
        for b in source.curve_names:
            want = source.gram[source.index(a)][source.index(b)]
            assert intersect(new, pullbacks[a], pullbacks[b]) == want
    # and the pulled-back anticanonical class keeps its self-intersection
    assert intersect(new, new.anti_k, new.anti_k) == source.norm
