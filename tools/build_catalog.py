#!/usr/bin/env python3
"""Regenerate the frozen catalog under src/dpdelta/catalog/.

Each case directory gets one JSON file per configuration plus expected.json
with the values the engine must reproduce: Fujita invariants of the
designated flags, local bounds at the stored point classes, full chamber
structures for a dozen flags, blowup bookkeeping, class-level envelopes and
the certified global minimum.

All numbers here were derived by hand from the intersection data; after
writing, every case is loaded back and re-verified with the engine, and the
build aborts on the first failing row, so a typo in this file cannot survive
a successful run. The composite delta table is then checked against the new
catalog, so a case name that is no type or variant, or a variant without its
pair, fails the build too.
"""
from __future__ import annotations

import json
import shutil
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dpdelta.applications import verify_main_theorem_table  # noqa: E402
from dpdelta.catalog import case_names, load_case, verify_case  # noqa: E402
from dpdelta.config import CurveRecord, PointSpec, SurfaceConfig, save  # noqa: E402
from dpdelta.errors import SchemaError  # noqa: E402
from dpdelta.rationals import format_rational  # noqa: E402

CATALOG = ROOT / "src" / "dpdelta" / "catalog"


# -- small helpers -------------------------------------------------------


def fr(x) -> str:
    """Canonical string form of a rational given as int, str or Fraction."""
    return format_rational(Fraction(str(x)))


def P(*coeffs) -> list[str]:
    """Ascending coefficient strings, trailing zeros stripped, as the engine writes them."""
    cs = [Fraction(str(c)) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return [format_rational(c) for c in cs]


def pt(pid: str, on: str, inc: dict | None = None, diff=0) -> tuple:
    return (pid, on, inc or {}, diff)


def config(
    name: str,
    curves: list[tuple],
    edges: dict,
    anti_k: dict,
    points: list[tuple] = (),
    *,
    smooth: bool = True,
    discrepancy: dict | None = None,
) -> SurfaceConfig:
    """Assemble a SurfaceConfig from terse curve/edge/coefficient data."""
    names = [c[0] for c in curves]
    index = {n: i for i, n in enumerate(names)}
    gram = [[Fraction(0)] * len(names) for _ in names]
    for i, (_, self_int, _) in enumerate(curves):
        gram[i][i] = Fraction(str(self_int))
    for (a, b), m in edges.items():
        gram[index[a]][index[b]] = gram[index[b]][index[a]] = Fraction(m)
    return SurfaceConfig(
        name=name,
        norm=1,
        curves=[CurveRecord(n, Fraction(str(s)), k) for n, s, k in curves],
        gram=gram,
        anti_k=[Fraction(str(anti_k.get(n, 0))) for n in names],
        discrepancy=discrepancy,
        smooth_surface=smooth,
        points=[
            PointSpec(pid, on, dict(inc), Fraction(str(diff)))
            for pid, on, inc, diff in points
        ],
    )


def blocks(
    curves: list,
    edges: dict,
    attach: str,
    partition: tuple[int, ...],
    points: list | None = None,
) -> None:
    """Hang (-1)-root plus (-2)-tail chains off `attach`.

    partition[i] is the total length of the i-th chain, root included. When
    `points` is given, one stored point class root_b<i> on `attach` marks
    where each root crosses it.
    """
    for i, length in enumerate(partition, 1):
        root = f"B{i}"
        curves.append((root, -1, "minus_one"))
        edges[(root, attach)] = 1
        prev = root
        for j in range(1, length):
            tail = f"B{i}T{j}"
            curves.append((tail, -2, "minus_two"))
            edges[(tail, prev)] = 1
            prev = tail
        if points is not None:
            points.append(pt(f"root_b{i}", attach, {root: 1}))


def chambers(cfg: SurfaceConfig, tau, rows: list[tuple]) -> dict:
    """Stored chamber structure; rows are (lo, hi, {curve: coeffs}, p_sq, p_dot)."""
    names = cfg.curve_names
    out = []
    for lo, hi, n, p_sq, p_dot in rows:
        supp = [nm for nm in names if nm in n]
        if len(supp) != len(n):
            raise ValueError(f"unknown support curve in {sorted(n)} for {cfg.name}")
        out.append(
            {
                "lo": fr(lo),
                "hi": fr(hi),
                "support": supp,
                "n_coeffs": {nm: P(*n[nm]) for nm in supp},
                "p_sq": P(*p_sq),
                "p_dot": P(*p_dot),
            }
        )
    return {"tau": fr(tau), "list": out}


def point_row(pid: str, s_w, relation: str = "=") -> dict:
    row = {"id": pid, "s_w": fr(s_w)}
    if relation != "=":
        row["relation"] = relation
    return row


def flag_row(
    config_id: str,
    flag: str,
    s,
    points: list[dict],
    *,
    chmb: dict | None = None,
) -> dict:
    row = {"config": config_id, "flag": flag, "s": fr(s), "points": points}
    if chmb is not None:
        row["chambers"] = chmb
    return row


def class_bound(config_id, flag, value, breakpoints, pieces, covers) -> dict:
    return {
        "config": config_id,
        "flag": flag,
        "value": fr(value),
        "envelope": {
            "breakpoints": [fr(b) for b in breakpoints],
            "pieces": [P(*p) for p in pieces],
        },
        "covers": list(covers),
    }


def case(name, delta, configs, flags, *, blowups=None, class_bounds=None) -> dict:
    return {
        "name": name,
        "delta": fr(delta),
        "configs": configs,
        "flags": flags,
        "blowups": blowups or {},
        "class_bounds": class_bounds or [],
    }


def blowup_spec(source, point, name, a_e_p, pullback, e_p_name="EP") -> dict:
    return {
        "from": source,
        "point": point,
        "e_p_name": e_p_name,
        "name": name,
        "a_e_p": fr(a_e_p),
        "pullback_coeff": fr(pullback),
    }


# -- nodal A1 ------------------------------------------------------------


def case_a1_nodal() -> dict:
    cfg = config(
        "A1-nodal",
        curves=[("C", -1, "minus_one"), ("E", -2, "minus_two")],
        edges={("C", "E"): 2},
        anti_k={"C": 1, "E": 1},
        points=[pt("node", "E", {"C": 1}), pt("generic", "E")],
    )
    chmb = chambers(
        cfg,
        1,
        [
            (0, "1/2", {}, (1, 0, -2), (0, 2)),
            ("1/2", 1, {"C": (-1, 2)}, (2, -4, 2), (2, -2)),
        ],
    )
    return case(
        "A1-nodal",
        2,
        configs=[("base", cfg)],
        flags=[
            flag_row(
                "base",
                "E",
                "1/2",
                [point_row("node", "1/2"), point_row("generic", "1/3")],
                chmb=chmb,
            )
        ],
    )


# -- cuspidal A1 (orbifold cover) ----------------------------------------


def case_a1_cuspidal() -> dict:
    cfg = config(
        "A1-cuspidal",
        curves=[
            ("Cbar", -3, "anticanonical_transform"),
            ("Ebar", "-1/4", "orbifold"),
        ],
        edges={("Cbar", "Ebar"): 1},
        anti_k={"Cbar": 1, "Ebar": 4},
        # Blow up the minimal resolution (C~ (-1) tangent to E (-2), -K = C~ + E)
        # at the tangency and then at the triple point C~, E, E1; contracting
        # E (-4) and E1 (-2) leaves Cbar and Ebar (= E2) and two quotient
        # points of index 2 and 4, whose differents 1/2 and 3/4 sum to the
        # 5/4 that log adjunction on Ebar asks: (K + Ebar).Ebar = -3/4.
        points=[
            pt("at_cbar", "Ebar", {"Cbar": 1}),
            pt("p1", "Ebar", diff="1/2"),
            pt("p2", "Ebar", diff="3/4"),
            pt("generic", "Ebar"),
        ],
        smooth=False,
        discrepancy={"Ebar": 3},
    )
    chmb = chambers(
        cfg,
        4,
        [
            (0, 1, {}, (1, 0, "-1/4"), (0, "1/4")),
            (1, 4, {"Cbar": ("-1/3", "1/3")}, ("4/3", "-2/3", "1/12"), ("1/3", "-1/12")),
        ],
    )
    return case(
        "A1-cuspidal",
        "9/5",
        configs=[("base", cfg)],
        flags=[
            flag_row(
                "base",
                "Ebar",
                "5/3",
                [
                    point_row("at_cbar", "1/3"),
                    point_row("p1", "1/12"),
                    point_row("p2", "1/12"),
                    point_row("generic", "1/12"),
                ],
                chmb=chmb,
            )
        ],
    )


# -- nodal A2 with one blowup --------------------------------------------


def _a2_base(name: str, points: list[tuple]) -> SurfaceConfig:
    return config(
        name,
        curves=[
            ("C", -1, "minus_one"),
            ("E1", -2, "minus_two"),
            ("E2", -2, "minus_two"),
        ],
        edges={("E1", "E2"): 1, ("C", "E1"): 1, ("C", "E2"): 1},
        anti_k={"C": 1, "E1": 1, "E2": 1},
        points=points,
    )


_A2_ENVELOPE = dict(
    breakpoints=(0, "2/3", 1),
    pieces=((0, 0, "9/8"), ("3/2", 0, "-3/2")),
)


def case_a2_nodal() -> dict:
    base = _a2_base(
        "A2-nodal",
        [
            pt("at_c", "E1", {"C": 1}),
            pt("corner", "E1", {"E2": 1}),
            pt("generic", "E1"),
        ],
    )
    blown = config(
        "A2-nodal-blowup",
        curves=[
            ("C", -1, "minus_one"),
            ("E1", -3, "other"),
            ("E2", -3, "other"),
            ("EP", -1, "other"),
        ],
        edges={
            ("C", "E1"): 1,
            ("C", "E2"): 1,
            ("EP", "E1"): 1,
            ("EP", "E2"): 1,
        },
        anti_k={"C": 1, "E1": 1, "E2": 1, "EP": 2},
        points=[
            pt("at_e1t", "EP", {"E1": 1}),
            pt("at_e2t", "EP", {"E2": 1}),
            pt("generic", "EP"),
        ],
        discrepancy={"EP": 2},
    )
    base_chambers = chambers(
        base,
        1,
        [
            (0, "2/3", {"E2": (0, "1/2")}, (1, 0, "-3/2"), (0, "3/2")),
            ("2/3", 1, {"C": (-2, 3), "E2": (-1, 2)}, (3, -6, 3), (3, -3)),
        ],
    )
    ep_chambers = chambers(
        blown,
        2,
        [
            (0, "3/2", {"E1": (0, "1/3"), "E2": (0, "1/3")}, (1, 0, "-1/3"), (0, "1/3")),
            (
                "3/2",
                2,
                {"C": (-3, 2), "E1": (-1, 1), "E2": (-1, 1)},
                (4, -4, 1),
                (2, -1),
            ),
        ],
    )
    return case(
        "A2-nodal",
        "12/7",
        configs=[("base", base), ("blowup", blown)],
        flags=[
            flag_row(
                "base",
                "E1",
                "5/9",
                [point_row("at_c", "4/9"), point_row("generic", "1/3")],
                chmb=base_chambers,
            ),
            flag_row(
                "blowup",
                "EP",
                "7/6",
                [
                    point_row("at_e1t", "7/12"),
                    point_row("at_e2t", "7/12"),
                    point_row("generic", "1/6"),
                ],
                chmb=ep_chambers,
            ),
        ],
        blowups={
            "blowup": blowup_spec("base", "corner", "A2-nodal-blowup", 2, 2)
        },
        class_bounds=[
            class_bound(
                "base",
                "E1",
                "14/27",
                _A2_ENVELOPE["breakpoints"],
                _A2_ENVELOPE["pieces"],
                ["at_c", "generic"],
            )
        ],
    )


# -- cuspidal A2 with one blowup -----------------------------------------


def case_a2_cuspidal() -> dict:
    base = _a2_base(
        "A2-cuspidal",
        [
            pt("corner3", "E1", {"E2": 1, "C": 1}),
            pt("generic", "E1"),
        ],
    )
    blown = config(
        "A2-cuspidal-blowup",
        curves=[
            ("C", -2, "other"),
            ("E1", -3, "other"),
            ("E2", -3, "other"),
            ("EP", -1, "other"),
        ],
        edges={("EP", "C"): 1, ("EP", "E1"): 1, ("EP", "E2"): 1},
        anti_k={"C": 1, "E1": 1, "E2": 1, "EP": 3},
        points=[
            pt("at_ct", "EP", {"C": 1}),
            pt("at_e1t", "EP", {"E1": 1}),
            pt("at_e2t", "EP", {"E2": 1}),
            pt("generic", "EP"),
        ],
        discrepancy={"EP": 2},
    )
    return case(
        "A2-cuspidal",
        "3/2",
        configs=[("base", base), ("blowup", blown)],
        flags=[
            flag_row(
                "base",
                "E1",
                "5/9",
                [point_row("generic", "1/3")],
            ),
            flag_row(
                "blowup",
                "EP",
                "4/3",
                [
                    point_row("at_ct", "1/3"),
                    point_row("at_e1t", "5/9"),
                    point_row("at_e2t", "5/9"),
                    point_row("generic", "1/9"),
                ],
            ),
        ],
        blowups={
            "blowup": blowup_spec("base", "corner3", "A2-cuspidal-blowup", 2, 3)
        },
        class_bounds=[
            class_bound(
                "base",
                "E1",
                "14/27",
                _A2_ENVELOPE["breakpoints"],
                _A2_ENVELOPE["pieces"],
                ["generic"],
            )
        ],
    )


# -- A3 ------------------------------------------------------------------


def case_a3() -> dict:
    cfg = config(
        "A3",
        curves=[
            ("C", -1, "minus_one"),
            ("E1", -2, "minus_two"),
            ("E2", -2, "minus_two"),
            ("E3", -2, "minus_two"),
        ],
        edges={
            ("E1", "E2"): 1,
            ("E2", "E3"): 1,
            ("C", "E1"): 1,
            ("C", "E3"): 1,
        },
        anti_k={"C": 1, "E1": 1, "E2": 1, "E3": 1},
        points=[
            pt("at_e1", "E2", {"E1": 1}),
            pt("at_e3", "E2", {"E3": 1}),
            pt("generic_e2", "E2"),
            pt("at_c_e1", "E1", {"C": 1}),
            pt("generic_e1", "E1"),
            pt("at_c_e3", "E3", {"C": 1}),
            pt("generic_e3", "E3"),
        ],
    )
    return case(
        "A3",
        "3/2",
        configs=[("base", cfg)],
        flags=[
            flag_row(
                "base",
                "E2",
                "2/3",
                [
                    point_row("at_e1", "2/3"),
                    point_row("at_e3", "2/3"),
                    point_row("generic_e2", "1/3"),
                ],
            ),
            flag_row(
                "base",
                "E1",
                "7/12",
                [point_row("at_c_e1", "5/12"), point_row("generic_e1", "1/3")],
            ),
            flag_row(
                "base",
                "E3",
                "7/12",
                [point_row("at_c_e3", "5/12"), point_row("generic_e3", "1/3")],
            ),
        ],
    )


# -- A4 with seven tail variants and one blowup ---------------------------

A4_PARTITIONS = {
    "a": (1, 1, 1, 1, 1),
    "b": (2, 1, 1, 1),
    "c": (2, 2, 1),
    "d": (3, 1, 1),
    "e": (3, 2),
    "f": (4, 1),
    "g": (5,),
}

A4_ROOT_SW = {1: "13/45", 2: "3/10", 3: "14/45", 4: "29/90", 5: "1/3"}

_A4_ANTI_K = {"C": 0, "E1": "1/2", "E2": 1, "E3": 1, "E4": "1/2", "L": "1/2"}


def _a4_config(vid: str) -> SurfaceConfig:
    curves = [
        ("C", -1, "minus_one"),
        ("E1", -2, "minus_two"),
        ("E2", -2, "minus_two"),
        ("E3", -2, "minus_two"),
        ("E4", -2, "minus_two"),
        ("L", 0, "other"),
    ]
    edges = {
        ("E1", "E2"): 1,
        ("E2", "E3"): 1,
        ("E3", "E4"): 1,
        ("C", "E1"): 1,
        ("C", "E4"): 1,
        ("L", "E2"): 1,
        ("L", "E3"): 1,
    }
    points = [pt("at_e1", "E2", {"E1": 1})]
    blocks(curves, edges, "E2", A4_PARTITIONS[vid], points)
    points.append(pt("generic_e2", "E2"))
    if vid == "a":
        points += [
            pt("center", "E2", {"E3": 1, "L": 1}),
            pt("at_c", "E1", {"C": 1}),
            pt("generic_e1", "E1"),
        ]
    return config(f"A4-{vid}", curves, edges, _A4_ANTI_K, points)


def _a4_blowup_config() -> SurfaceConfig:
    curves = [
        ("C", -1, "minus_one"),
        ("E1", -2, "minus_two"),
        ("E2", -3, "other"),
        ("E3", -3, "other"),
        ("E4", -2, "minus_two"),
        ("L", -1, "other"),
    ]
    edges = {
        ("E1", "E2"): 1,
        ("E3", "E4"): 1,
        ("C", "E1"): 1,
        ("C", "E4"): 1,
    }
    blocks(curves, edges, "E2", A4_PARTITIONS["a"])
    curves.append(("EP", -1, "other"))
    edges.update({("EP", "E2"): 1, ("EP", "E3"): 1, ("EP", "L"): 1})
    anti_k = dict(_A4_ANTI_K)
    anti_k["EP"] = "5/2"
    return config(
        "A4-blowup",
        curves,
        edges,
        anti_k,
        points=[
            pt("at_e2t", "EP", {"E2": 1}),
            pt("at_e3t", "EP", {"E3": 1}),
            pt("at_lt", "EP", {"L": 1}),
            pt("generic_ep", "EP"),
        ],
        discrepancy={"EP": 2},
    )


def case_a4() -> dict:
    variants = {vid: _a4_config(vid) for vid in A4_PARTITIONS}
    blown = _a4_blowup_config()

    e2_chambers = chambers(
        variants["a"],
        "6/5",
        [
            (
                0,
                1,
                {"E1": (0, "1/2"), "E3": (0, "2/3"), "E4": (0, "1/3")},
                (1, 0, "-5/6"),
                (0, "5/6"),
            ),
            (
                1,
                "6/5",
                {
                    "E1": (0, "1/2"),
                    "E3": (0, "2/3"),
                    "E4": (0, "1/3"),
                    "B1": (-1, 1),
                    "B2": (-1, 1),
                    "B3": (-1, 1),
                    "B4": (-1, 1),
                    "B5": (-1, 1),
                },
                (6, -10, "25/6"),
                (5, "-25/6"),
            ),
        ],
    )
    ep_chambers = chambers(
        blown,
        "5/2",
        [
            (
                0,
                2,
                {
                    "E1": (0, "1/5"),
                    "E2": (0, "2/5"),
                    "E3": (0, "2/5"),
                    "E4": (0, "1/5"),
                },
                (1, 0, "-1/5"),
                (0, "1/5"),
            ),
            (
                2,
                "5/2",
                {
                    "E1": (0, "1/5"),
                    "E2": (0, "2/5"),
                    "E3": (0, "2/5"),
                    "E4": (0, "1/5"),
                    "L": (-2, 1),
                },
                (5, -4, "4/5"),
                (2, "-4/5"),
            ),
        ],
    )

    flags = []
    for vid, partition in A4_PARTITIONS.items():
        pts = [point_row("at_e1", "29/45")]
        pts += [
            point_row(f"root_b{i}", A4_ROOT_SW[length])
            for i, length in enumerate(partition, 1)
        ]
        pts.append(point_row("generic_e2", "5/18"))
        flags.append(
            flag_row(
                vid,
                "E2",
                "11/15",
                pts,
                chmb=e2_chambers if vid == "a" else None,
            )
        )
    flags.append(
        flag_row(
            "a",
            "E1",
            "3/5",
            [point_row("at_c", "2/5"), point_row("generic_e1", "1/3")],
        )
    )
    flags.append(
        flag_row(
            "blowup",
            "EP",
            "3/2",
            [
                point_row("at_e2t", "11/15", "<="),
                point_row("at_e3t", "11/15"),
                point_row("at_lt", "1/6", "<="),
                point_row("generic_ep", "2/15"),
            ],
            chmb=ep_chambers,
        )
    )

    return case(
        "A4",
        "4/3",
        configs=[(vid, variants[vid]) for vid in A4_PARTITIONS] + [("blowup", blown)],
        flags=flags,
        blowups={"blowup": blowup_spec("a", "center", "A4-blowup", 2, "5/2")},
    )


# -- A5 with tail variants on two flags ------------------------------------

A5_E3_PARTITIONS = {"e3a": (1, 1), "e3b": (2,)}
A5_E2_PARTITIONS = {"e2a": (1, 1, 1), "e2b": (2, 1), "e2c": (3,)}
A5_E3_ROOT_SW = {1: "5/18", 2: "1/3"}
A5_E2_ROOT_SW = {1: "5/18", 2: "11/36", 3: "1/3"}


def _a5_config(vid: str, attach: str, partition: tuple[int, ...]) -> SurfaceConfig:
    curves = [("C", -1, "minus_one")] + [
        (f"E{i}", -2, "minus_two") for i in range(1, 6)
    ]
    edges = {(f"E{i}", f"E{i + 1}"): 1 for i in range(1, 5)}
    edges.update({("C", "E1"): 1, ("C", "E5"): 1})
    points: list[tuple] = []
    if attach == "E3":
        points += [pt("at_e2", "E3", {"E2": 1}), pt("at_e4", "E3", {"E4": 1})]
    else:
        points.append(pt("at_e1", "E2", {"E1": 1}))
    blocks(curves, edges, attach, partition, points)
    points.append(pt(f"generic_{attach.lower()}", attach))
    if vid == "e2a":
        points += [pt("at_c", "E1", {"C": 1}), pt("generic_e1", "E1")]
    anti_k = {n: 1 for n in ("C", "E1", "E2", "E3", "E4", "E5")}
    return config(f"A5-{vid}", curves, edges, anti_k, points)


def case_a5() -> dict:
    configs = []
    flags = []
    for vid, partition in A5_E3_PARTITIONS.items():
        cfg = _a5_config(vid, "E3", partition)
        configs.append((vid, cfg))
        pts = [point_row("at_e2", "7/9"), point_row("at_e4", "7/9")]
        pts += [
            point_row(f"root_b{i}", A5_E3_ROOT_SW[length])
            for i, length in enumerate(partition, 1)
        ]
        pts.append(point_row("generic_e3", "2/9"))
        flags.append(flag_row(vid, "E3", "5/6", pts))
    for vid, partition in A5_E2_PARTITIONS.items():
        cfg = _a5_config(vid, "E2", partition)
        configs.append((vid, cfg))
        pts = [point_row("at_e1", "23/36")]
        pts += [
            point_row(f"root_b{i}", A5_E2_ROOT_SW[length])
            for i, length in enumerate(partition, 1)
        ]
        pts.append(point_row("generic_e2", "1/4"))
        flags.append(flag_row(vid, "E2", "7/9", pts))
    flags.append(
        flag_row(
            "e2a",
            "E1",
            "11/18",
            [point_row("at_c", "7/18"), point_row("generic_e1", "1/3")],
        )
    )
    return case("A5", "6/5", configs=configs, flags=flags)


# -- A6 ------------------------------------------------------------------

A6_PARTITIONS = {"a": (1, 1), "b": (2,)}
A6_ROOT_SW = {1: "101/360", 2: "23/72"}


def _a6_config(vid: str) -> SurfaceConfig:
    curves = [("C", -1, "minus_one")] + [
        (f"E{i}", -2, "minus_two") for i in range(1, 7)
    ]
    curves += [("F3", -1, "minus_one"), ("F4", -1, "minus_one")]
    edges = {(f"E{i}", f"E{i + 1}"): 1 for i in range(1, 6)}
    edges.update(
        {("C", "E1"): 1, ("C", "E6"): 1, ("F3", "E3"): 1, ("F4", "E4"): 1}
    )
    points = [
        pt("at_f3", "E3", {"F3": 1}),
        pt("at_e2", "E3", {"E2": 1}),
        pt("at_e4", "E3", {"E4": 1}),
        pt("generic_e3", "E3"),
        pt("at_e1", "E2", {"E1": 1}),
    ]
    blocks(curves, edges, "E2", A6_PARTITIONS[vid], points)
    points.append(pt("generic_e2", "E2"))
    if vid == "a":
        points += [pt("at_c", "E1", {"C": 1}), pt("generic_e1", "E1")]
    anti_k = {n: 1 for n in ["C"] + [f"E{i}" for i in range(1, 7)]}
    return config(f"A6-{vid}", curves, edges, anti_k, points)


def case_a6() -> dict:
    configs = [(vid, _a6_config(vid)) for vid in A6_PARTITIONS]
    flags = []
    for vid in A6_PARTITIONS:
        flags.append(
            flag_row(
                vid,
                "E3",
                "8/9",
                [
                    point_row("at_f3", "8/27"),
                    point_row("at_e2", "29/36"),
                    point_row("at_e4", "8/9"),
                    point_row("generic_e3", "23/108"),
                ],
            )
        )
    for vid, partition in A6_PARTITIONS.items():
        pts = [point_row("at_e1", "29/45")]
        pts += [
            point_row(f"root_b{i}", A6_ROOT_SW[length])
            for i, length in enumerate(partition, 1)
        ]
        pts.append(point_row("generic_e2", "29/120"))
        flags.append(flag_row(vid, "E2", "29/36", pts))
    flags.append(
        flag_row(
            "a",
            "E1",
            "13/21",
            [point_row("at_c", "8/21"), point_row("generic_e1", "1/3")],
        )
    )
    return case("A6", "9/8", configs=configs, flags=flags)


# -- A7, anticanonical transform reducible --------------------------------

A7R_PARTITIONS = {"a": (1, 1), "b": (2,)}
A7R_ROOT_SW = {1: "5/18", 2: "1/3"}


def _a7r_config(vid: str) -> SurfaceConfig:
    curves = [("C", -1, "minus_one")] + [
        (f"E{i}", -2, "minus_two") for i in range(1, 8)
    ]
    curves.append(("F4", -1, "minus_one"))
    edges = {(f"E{i}", f"E{i + 1}"): 1 for i in range(1, 7)}
    edges.update({("C", "E1"): 1, ("C", "E7"): 1, ("F4", "E4"): 1})
    points = [
        pt("at_e3", "E4", {"E3": 1}),
        pt("at_e5", "E4", {"E5": 1}),
        pt("at_f4", "E4", {"F4": 1}),
        pt("generic_e4", "E4"),
        pt("at_e1", "E2", {"E1": 1}),
    ]
    blocks(curves, edges, "E2", A7R_PARTITIONS[vid], points)
    points.append(pt("generic_e2", "E2"))
    if vid == "a":
        points += [
            pt("at_e2", "E3", {"E2": 1}),
            pt("generic_e3", "E3"),
            pt("at_c", "E1", {"C": 1}),
            pt("generic_e1", "E1"),
        ]
    anti_k = {n: 1 for n in ["C"] + [f"E{i}" for i in range(1, 8)]}
    return config(f"A7-reducible-{vid}", curves, edges, anti_k, points)


def case_a7_reducible() -> dict:
    configs = [(vid, _a7r_config(vid)) for vid in A7R_PARTITIONS]
    e4_chambers = chambers(
        configs[0][1],
        2,
        [
            (
                0,
                1,
                {
                    "E1": (0, "1/4"),
                    "E2": (0, "1/2"),
                    "E3": (0, "3/4"),
                    "E5": (0, "3/4"),
                    "E6": (0, "1/2"),
                    "E7": (0, "1/4"),
                },
                (1, 0, "-1/2"),
                (0, "1/2"),
            ),
            (
                1,
                2,
                {
                    "E1": (0, "1/4"),
                    "E2": (0, "1/2"),
                    "E3": (0, "3/4"),
                    "E5": (0, "3/4"),
                    "E6": (0, "1/2"),
                    "E7": (0, "1/4"),
                    "F4": (-1, 1),
                },
                (2, -2, "1/2"),
                (1, "-1/2"),
            ),
        ],
    )
    e4_points = [
        point_row("at_e3", "11/12"),
        point_row("at_e5", "11/12"),
        point_row("at_f4", "1/3"),
        point_row("generic_e4", "1/6"),
    ]
    flags = [
        flag_row("a", "E4", 1, e4_points, chmb=e4_chambers),
        flag_row("b", "E4", 1, e4_points),
        flag_row(
            "a",
            "E3",
            "11/12",
            [point_row("at_e2", "5/6"), point_row("generic_e3", "2/9")],
        ),
    ]
    for vid, partition in A7R_PARTITIONS.items():
        pts = [point_row("at_e1", "23/36")]
        pts += [
            point_row(f"root_b{i}", A7R_ROOT_SW[length])
            for i, length in enumerate(partition, 1)
        ]
        pts.append(point_row("generic_e2", "2/9"))
        flags.append(flag_row(vid, "E2", "5/6", pts))
    flags.append(
        flag_row(
            "a",
            "E1",
            "5/8",
            [point_row("at_c", "3/8"), point_row("generic_e1", "1/3")],
        )
    )
    return case("A7-reducible", 1, configs=configs, flags=flags)


# -- A7, anticanonical transform irreducible ------------------------------


def case_a7_irreducible() -> dict:
    curves = [("C", -1, "minus_one")] + [
        (f"E{i}", -2, "minus_two") for i in range(1, 8)
    ]
    curves += [(f"F{i}", -1, "minus_one") for i in (2, 3, 5, 6)]
    edges = {(f"E{i}", f"E{i + 1}"): 1 for i in range(1, 7)}
    edges.update({("C", "E1"): 1, ("C", "E7"): 1})
    edges.update({(f"F{i}", f"E{i}"): 1 for i in (2, 3, 5, 6)})
    cfg = config(
        "A7-irreducible",
        curves,
        edges,
        {n: 1 for n in ["C"] + [f"E{i}" for i in range(1, 8)]},
        points=[
            pt("at_e3", "E4", {"E3": 1}),
            pt("at_e5", "E4", {"E5": 1}),
            pt("generic_e4", "E4"),
            pt("at_f3", "E3", {"F3": 1}),
            pt("at_e2", "E3", {"E2": 1}),
            pt("generic_e3", "E3"),
            pt("at_e1", "E2", {"E1": 1}),
            pt("at_f2", "E2", {"F2": 1}),
            pt("generic_e2", "E2"),
            pt("at_c", "E1", {"C": 1}),
            pt("generic_e1", "E1"),
        ],
    )
    e3_chambers = chambers(
        cfg,
        "5/3",
        [
            (
                0,
                1,
                {
                    "E1": (0, "1/3"),
                    "E2": (0, "2/3"),
                    "E4": (0, "4/5"),
                    "E5": (0, "3/5"),
                    "E6": (0, "2/5"),
                    "E7": (0, "1/5"),
                },
                (1, 0, "-8/15"),
                (0, "8/15"),
            ),
            (
                1,
                "3/2",
                {
                    "E1": (0, "1/3"),
                    "E2": (0, "2/3"),
                    "E4": (0, "4/5"),
                    "E5": (0, "3/5"),
                    "E6": (0, "2/5"),
                    "E7": (0, "1/5"),
                    "F3": (-1, 1),
                },
                (2, -2, "7/15"),
                (1, "-7/15"),
            ),
            (
                "3/2",
                "5/3",
                {
                    "E1": (-1, 1),
                    "E2": (-2, 2),
                    "E4": (0, "4/5"),
                    "E5": (0, "3/5"),
                    "E6": (0, "2/5"),
                    "E7": (0, "1/5"),
                    "F2": (-3, 2),
                    "F3": (-1, 1),
                },
                (5, -6, "9/5"),
                (3, "-9/5"),
            ),
        ],
    )
    return case(
        "A7-irreducible",
        "18/17",
        configs=[("base", cfg)],
        flags=[
            flag_row(
                "base",
                "E4",
                "17/18",
                [
                    point_row("at_e3", "17/18"),
                    point_row("at_e5", "17/18"),
                    point_row("generic_e4", "2/9"),
                ],
            ),
            flag_row(
                "base",
                "E3",
                "17/18",
                [
                    point_row("at_f3", "14/45", "<="),
                    point_row("at_e2", "37/45", "<="),
                    point_row("generic_e3", "17/90"),
                ],
                chmb=e3_chambers,
            ),
            flag_row(
                "base",
                "E2",
                "37/45",
                [
                    point_row("at_e1", "59/90"),
                    point_row("at_f2", "13/45"),
                    point_row("generic_e2", "11/45"),
                ],
            ),
            flag_row(
                "base",
                "E1",
                "5/8",
                [point_row("at_c", "3/8"), point_row("generic_e1", "1/3")],
            ),
        ],
    )


# -- A8 ------------------------------------------------------------------


def case_a8() -> dict:
    curves = [("C", -1, "minus_one")] + [
        (f"E{i}", -2, "minus_two") for i in range(1, 9)
    ]
    curves.append(("F3", -1, "minus_one"))
    edges = {(f"E{i}", f"E{i + 1}"): 1 for i in range(1, 8)}
    edges.update({("C", "E1"): 1, ("C", "E8"): 1, ("F3", "E3"): 1})
    cfg = config(
        "A8",
        curves,
        edges,
        {n: 1 for n in ["C"] + [f"E{i}" for i in range(1, 9)]},
        points=[
            pt("at_e5", "E4", {"E5": 1}),
            pt("at_e3", "E4", {"E3": 1}),
            pt("generic_e4", "E4"),
            pt("at_e2", "E3", {"E2": 1}),
            pt("at_f3", "E3", {"F3": 1}),
            pt("generic_e3", "E3"),
            pt("at_e1", "E2", {"E1": 1}),
            pt("generic_e2", "E2"),
            pt("at_c", "E1", {"C": 1}),
            pt("generic_e1", "E1"),
        ],
    )
    e4_chambers = chambers(
        cfg,
        "5/3",
        [
            (
                0,
                "4/3",
                {
                    "E1": (0, "1/4"),
                    "E2": (0, "1/2"),
                    "E3": (0, "3/4"),
                    "E5": (0, "4/5"),
                    "E6": (0, "3/5"),
                    "E7": (0, "2/5"),
                    "E8": (0, "1/5"),
                },
                (1, 0, "-9/20"),
                (0, "9/20"),
            ),
            (
                "4/3",
                "5/3",
                {
                    "E1": (-1, 1),
                    "E2": (-2, 2),
                    "E3": (-3, 3),
                    "E5": (0, "4/5"),
                    "E6": (0, "3/5"),
                    "E7": (0, "2/5"),
                    "E8": (0, "1/5"),
                    "F3": (-4, 3),
                },
                (5, -6, "9/5"),
                (3, "-9/5"),
            ),
        ],
    )
    return case(
        "A8",
        1,
        configs=[("base", cfg)],
        flags=[
            flag_row(
                "base",
                "E4",
                1,
                [
                    point_row("at_e5", 1),
                    point_row("at_e3", 1),
                    point_row("generic_e4", "1/5"),
                ],
                chmb=e4_chambers,
            ),
            flag_row(
                "base",
                "E3",
                1,
                [
                    point_row("at_e2", "5/6"),
                    point_row("at_f3", "1/3"),
                    point_row("generic_e3", "1/6"),
                ],
            ),
            flag_row(
                "base",
                "E2",
                "5/6",
                [point_row("at_e1", "2/3"), point_row("generic_e2", "1/4")],
            ),
            flag_row(
                "base",
                "E1",
                "17/27",
                [point_row("at_c", "10/27"), point_row("generic_e1", "1/3")],
            ),
        ],
    )


# -- D4 ------------------------------------------------------------------


def case_d4() -> dict:
    cfg = config(
        "D4",
        curves=[
            ("C", -1, "minus_one"),
            ("E", -2, "minus_two"),
            ("E1", -2, "minus_two"),
            ("E2", -2, "minus_two"),
            ("E3", -2, "minus_two"),
        ],
        edges={
            ("E", "E1"): 1,
            ("E", "E2"): 1,
            ("E", "E3"): 1,
            ("C", "E"): 1,
        },
        anti_k={"C": 1, "E": 2, "E1": 1, "E2": 1, "E3": 1},
        points=[
            pt("at_e1", "E", {"E1": 1}),
            pt("at_e2", "E", {"E2": 1}),
            pt("at_e3", "E", {"E3": 1}),
            pt("at_c", "E", {"C": 1}),
            pt("generic_e", "E"),
            pt("generic_e1", "E1"),
        ],
    )
    return case(
        "D4",
        1,
        configs=[("base", cfg)],
        flags=[
            flag_row(
                "base",
                "E",
                1,
                [
                    point_row("at_e1", "2/3"),
                    point_row("at_e2", "2/3"),
                    point_row("at_e3", "2/3"),
                    point_row("at_c", "1/3"),
                    point_row("generic_e", "1/6"),
                ],
            ),
            flag_row("base", "E1", "2/3", [point_row("generic_e1", "1/3")]),
        ],
    )


# -- D5 with tail variants -------------------------------------------------

D5_PARTITIONS = {
    "a": (1, 1, 1, 1),
    "b": (2, 1, 1),
    "c": (2, 2),
    "d": (3, 1),
    "e": (4,),
}
D5_ROOT_SW = {1: "17/60", 2: "3/10", 3: "19/60", 4: "1/3"}


def _d5_config(vid: str) -> SurfaceConfig:
    curves = [
        ("C", -1, "minus_one"),
        ("E", -2, "minus_two"),
        ("E1", -2, "minus_two"),
        ("E2", -2, "minus_two"),
        ("E3", -2, "minus_two"),
        ("E4", -2, "minus_two"),
    ]
    edges = {
        ("E", "E1"): 1,
        ("E", "E2"): 1,
        ("E", "E3"): 1,
        ("E3", "E4"): 1,
        ("C", "E3"): 1,
    }
    points: list[tuple] = []
    if vid == "a":
        points += [
            pt("at_e1", "E", {"E1": 1}),
            pt("at_e2", "E", {"E2": 1}),
            pt("at_e3", "E", {"E3": 1}),
            pt("generic_e", "E"),
        ]
    blocks(curves, edges, "E1", D5_PARTITIONS[vid], points)
    points.append(pt("generic_e1", "E1"))
    if vid == "a":
        points += [
            pt("at_e4", "E3", {"E4": 1}),
            pt("at_c", "E3", {"C": 1}),
            pt("generic_e3", "E3"),
            pt("generic_e4", "E4"),
        ]
    anti_k = {"C": 1, "E1": 1, "E2": 1, "E": 2, "E3": 2, "E4": 1}
    return config(f"D5-{vid}", curves, edges, anti_k, points)


def case_d5() -> dict:
    configs = [(vid, _d5_config(vid)) for vid in D5_PARTITIONS]
    flags = [
        flag_row(
            "a",
            "E",
            "7/6",
            [
                point_row("at_e1", "3/4"),
                point_row("at_e2", "3/4"),
                point_row("at_e3", 1),
                point_row("generic_e", "1/6"),
            ],
        )
    ]
    for vid, partition in D5_PARTITIONS.items():
        pts = [
            point_row(f"root_b{i}", D5_ROOT_SW[length])
            for i, length in enumerate(partition, 1)
        ]
        pts.append(point_row("generic_e1", "4/15"))
        flags.append(flag_row(vid, "E1", "3/4", pts))
    flags += [
        flag_row(
            "a",
            "E3",
            1,
            [
                point_row("at_e4", "2/3"),
                point_row("at_c", "1/3"),
                point_row("generic_e3", "1/6"),
            ],
        ),
        flag_row("a", "E4", "2/3", [point_row("generic_e4", "1/3")]),
    ]
    return case("D5", "6/7", configs=configs, flags=flags)


# -- D6 with tail variants -------------------------------------------------

D6_PARTITIONS = {"a": (1, 1), "b": (2,)}
D6_ROOT_SW = {1: "5/18", 2: "1/3"}


def _d6_config(vid: str) -> SurfaceConfig:
    curves = [("C", -1, "minus_one"), ("E", -2, "minus_two")] + [
        (f"E{i}", -2, "minus_two") for i in range(1, 6)
    ]
    edges = {
        ("E", "E1"): 1,
        ("E", "E2"): 1,
        ("E", "E3"): 1,
        ("E3", "E4"): 1,
        ("E4", "E5"): 1,
        ("C", "E4"): 1,
    }
    points: list[tuple] = []
    if vid == "a":
        points += [
            pt("at_e3", "E", {"E3": 1}),
            pt("at_e1", "E", {"E1": 1}),
            pt("at_e2", "E", {"E2": 1}),
            pt("generic_e", "E"),
        ]
    blocks(curves, edges, "E1", D6_PARTITIONS[vid], points)
    points.append(pt("generic_e1", "E1"))
    if vid == "a":
        points += [
            pt("at_e4", "E3", {"E4": 1}),
            pt("generic_e3", "E3"),
            pt("at_e5", "E4", {"E5": 1}),
            pt("at_c", "E4", {"C": 1}),
            pt("generic_e4", "E4"),
            pt("generic_e5", "E5"),
        ]
    anti_k = {"C": 1, "E1": 1, "E2": 1, "E": 2, "E3": 2, "E4": 2, "E5": 1}
    return config(f"D6-{vid}", curves, edges, anti_k, points)


def case_d6() -> dict:
    configs = [(vid, _d6_config(vid)) for vid in D6_PARTITIONS]
    flags = [
        flag_row(
            "a",
            "E",
            "4/3",
            [
                point_row("at_e3", "7/6"),
                point_row("at_e1", "5/6"),
                point_row("at_e2", "5/6"),
                point_row("generic_e", "1/6"),
            ],
        )
    ]
    for vid, partition in D6_PARTITIONS.items():
        pts = [
            point_row(f"root_b{i}", D6_ROOT_SW[length])
            for i, length in enumerate(partition, 1)
        ]
        pts.append(point_row("generic_e1", "2/9"))
        flags.append(flag_row(vid, "E1", "5/6", pts))
    flags += [
        flag_row(
            "a",
            "E3",
            "7/6",
            [point_row("at_e4", 1), point_row("generic_e3", "1/6")],
        ),
        flag_row(
            "a",
            "E4",
            1,
            [
                point_row("at_e5", "2/3"),
                point_row("at_c", "1/3"),
                point_row("generic_e4", "1/6"),
            ],
        ),
        flag_row("a", "E5", "2/3", [point_row("generic_e5", "1/3")]),
    ]
    return case("D6", "3/4", configs=configs, flags=flags)


# -- D7 ------------------------------------------------------------------


def case_d7() -> dict:
    curves = [("C", -1, "minus_one"), ("E", -2, "minus_two")] + [
        (f"E{i}", -2, "minus_two") for i in range(1, 7)
    ]
    curves += [("F1", -1, "minus_one"), ("F2", -1, "minus_one")]
    edges = {
        ("E", "E1"): 1,
        ("E", "E2"): 1,
        ("E", "E3"): 1,
        ("E3", "E4"): 1,
        ("E4", "E5"): 1,
        ("E5", "E6"): 1,
        ("C", "E5"): 1,
        ("F1", "E1"): 1,
        ("F2", "E2"): 1,
    }
    cfg = config(
        "D7",
        curves,
        edges,
        {"C": 1, "E": 2, "E1": 1, "E2": 1, "E3": 2, "E4": 2, "E5": 2, "E6": 1},
        points=[
            pt("at_e3", "E", {"E3": 1}),
            pt("at_e1", "E", {"E1": 1}),
            pt("at_e2", "E", {"E2": 1}),
            pt("generic_e", "E"),
            pt("at_f1", "E1", {"F1": 1}),
            pt("generic_e1", "E1"),
            pt("at_e4", "E3", {"E4": 1}),
            pt("generic_e3", "E3"),
            pt("at_e5", "E4", {"E5": 1}),
            pt("generic_e4", "E4"),
            pt("at_e6", "E5", {"E6": 1}),
            pt("at_c", "E5", {"C": 1}),
            pt("generic_e5", "E5"),
            pt("generic_e6", "E6"),
        ],
    )
    return case(
        "D7",
        "2/3",
        configs=[("base", cfg)],
        flags=[
            flag_row(
                "base",
                "E",
                "3/2",
                [
                    point_row("at_e3", "4/3"),
                    point_row("at_e1", "9/10"),
                    point_row("at_e2", "9/10"),
                    point_row("generic_e", "2/15"),
                ],
            ),
            flag_row(
                "base",
                "E1",
                "9/10",
                [point_row("at_f1", "3/10"), point_row("generic_e1", "22/105")],
            ),
            flag_row(
                "base",
                "E3",
                "4/3",
                [point_row("at_e4", "7/6"), point_row("generic_e3", "1/6")],
            ),
            flag_row(
                "base",
                "E4",
                "7/6",
                [point_row("at_e5", 1), point_row("generic_e4", "1/6")],
            ),
            flag_row(
                "base",
                "E5",
                1,
                [
                    point_row("at_e6", "2/3"),
                    point_row("at_c", "1/3"),
                    point_row("generic_e5", "1/6"),
                ],
            ),
            flag_row("base", "E6", "2/3", [point_row("generic_e6", "1/3")]),
        ],
    )


# -- D8 ------------------------------------------------------------------


def case_d8() -> dict:
    curves = [("C", -1, "minus_one"), ("E", -2, "minus_two")] + [
        (f"E{i}", -2, "minus_two") for i in range(1, 8)
    ]
    curves.append(("F1", -1, "minus_one"))
    edges = {
        ("E", "E1"): 1,
        ("E", "E2"): 1,
        ("E", "E3"): 1,
        ("E3", "E4"): 1,
        ("E4", "E5"): 1,
        ("E5", "E6"): 1,
        ("E6", "E7"): 1,
        ("C", "E6"): 1,
        ("F1", "E1"): 1,
    }
    cfg = config(
        "D8",
        curves,
        edges,
        {
            "C": 1,
            "E": 2,
            "E1": 1,
            "E2": 1,
            "E3": 2,
            "E4": 2,
            "E5": 2,
            "E6": 2,
            "E7": 1,
        },
        points=[
            pt("at_e1", "E", {"E1": 1}),
            pt("at_e3", "E", {"E3": 1}),
            pt("at_e2", "E", {"E2": 1}),
            pt("generic_e", "E"),
            pt("at_f1", "E1", {"F1": 1}),
            pt("generic_e1", "E1"),
            pt("generic_e2", "E2"),
            pt("at_e4", "E3", {"E4": 1}),
            pt("generic_e3", "E3"),
            pt("at_e5", "E4", {"E5": 1}),
            pt("generic_e4", "E4"),
            pt("at_e6", "E5", {"E6": 1}),
            pt("generic_e5", "E5"),
            pt("at_e7", "E6", {"E7": 1}),
            pt("at_c", "E6", {"C": 1}),
            pt("generic_e6", "E6"),
            pt("generic_e7", "E7"),
        ],
    )
    e_chambers = chambers(
        cfg,
        3,
        [
            (
                0,
                2,
                {
                    "E1": (0, "1/2"),
                    "E2": (0, "1/2"),
                    "E3": (0, "5/6"),
                    "E4": (0, "2/3"),
                    "E5": (0, "1/2"),
                    "E6": (0, "1/3"),
                    "E7": (0, "1/6"),
                },
                (1, 0, "-1/6"),
                (0, "1/6"),
            ),
            (
                2,
                3,
                {
                    "E1": (-1, 1),
                    "E2": (0, "1/2"),
                    "E3": (0, "5/6"),
                    "E4": (0, "2/3"),
                    "E5": (0, "1/2"),
                    "E6": (0, "1/3"),
                    "E7": (0, "1/6"),
                    "F1": (-2, 1),
                },
                (3, -2, "1/3"),
                (1, "-1/3"),
            ),
        ],
    )
    return case(
        "D8",
        "3/5",
        configs=[("base", cfg)],
        flags=[
            flag_row(
                "base",
                "E",
                "5/3",
                [
                    point_row("at_e1", 1),
                    point_row("at_e3", "3/2"),
                    point_row("at_e2", "17/18"),
                    point_row("generic_e", "1/9"),
                ],
                chmb=e_chambers,
            ),
            flag_row(
                "base",
                "E1",
                1,
                [point_row("at_f1", "1/3"), point_row("generic_e1", "1/6")],
            ),
            flag_row("base", "E2", "17/18", [point_row("generic_e2", "2/9")]),
            flag_row(
                "base",
                "E3",
                "3/2",
                [point_row("at_e4", "4/3"), point_row("generic_e3", "2/15")],
            ),
            flag_row(
                "base",
                "E4",
                "4/3",
                [point_row("at_e5", "7/6"), point_row("generic_e4", "1/6")],
            ),
            flag_row(
                "base",
                "E5",
                "7/6",
                [point_row("at_e6", 1), point_row("generic_e5", "1/6")],
            ),
            flag_row(
                "base",
                "E6",
                1,
                [
                    point_row("at_e7", "2/3"),
                    point_row("at_c", "1/3"),
                    point_row("generic_e6", "1/6"),
                ],
            ),
            flag_row("base", "E7", "2/3", [point_row("generic_e7", "1/3")]),
        ],
    )


# -- E6 with tail variants -------------------------------------------------

E6_PARTITIONS = {"a": (1, 1, 1), "b": (2, 1), "c": (3,)}
E6_ROOT_SW = {1: "5/18", 2: "11/36", 3: "1/3"}


def _e6_config(vid: str) -> SurfaceConfig:
    curves = [("C", -1, "minus_one")] + [
        (f"E{i}", -2, "minus_two") for i in range(1, 6)
    ]
    curves.append(("E", -2, "minus_two"))
    edges = {(f"E{i}", f"E{i + 1}"): 1 for i in range(1, 5)}
    edges.update({("E", "E3"): 1, ("C", "E"): 1})
    points: list[tuple] = []
    if vid == "a":
        points += [
            pt("at_e", "E3", {"E": 1}),
            pt("at_e2", "E3", {"E2": 1}),
            pt("at_e4", "E3", {"E4": 1}),
            pt("generic_e3", "E3"),
            pt("at_e1", "E2", {"E1": 1}),
            pt("generic_e2", "E2"),
        ]
    blocks(curves, edges, "E1", E6_PARTITIONS[vid], points)
    points.append(pt("generic_e1", "E1"))
    if vid == "a":
        points += [pt("at_c", "E", {"C": 1}), pt("generic_e", "E")]
    anti_k = {"C": 1, "E1": 1, "E2": 2, "E3": 3, "E4": 2, "E5": 1, "E": 2}
    return config(f"E6-{vid}", curves, edges, anti_k, points)


def case_e6() -> dict:
    configs = [(vid, _e6_config(vid)) for vid in E6_PARTITIONS]
    flags = [
        flag_row(
            "a",
            "E3",
            "5/3",
            [
                point_row("at_e", 1),
                point_row("at_e2", "11/9"),
                point_row("at_e4", "11/9"),
                point_row("generic_e3", "1/9"),
            ],
        ),
        flag_row(
            "a",
            "E2",
            "11/9",
            [point_row("at_e1", "7/9"), point_row("generic_e2", "1/6")],
        ),
    ]
    for vid, partition in E6_PARTITIONS.items():
        pts = [
            point_row(f"root_b{i}", E6_ROOT_SW[length])
            for i, length in enumerate(partition, 1)
        ]
        pts.append(point_row("generic_e1", "1/4"))
        flags.append(flag_row(vid, "E1", "7/9", pts))
    flags.append(
        flag_row(
            "a",
            "E",
            1,
            [point_row("at_c", "1/3"), point_row("generic_e", "1/6")],
        )
    )
    return case("E6", "3/5", configs=configs, flags=flags)


# -- E7 with tail variants -------------------------------------------------

E7_PARTITIONS = {"a": (1, 1), "b": (2,)}
E7_ROOT_SW = {1: "5/18", 2: "1/3"}


def _e7_config(vid: str) -> SurfaceConfig:
    curves = [("C", -1, "minus_one")] + [
        (f"E{i}", -2, "minus_two") for i in range(1, 7)
    ]
    curves.append(("E", -2, "minus_two"))
    edges = {(f"E{i}", f"E{i + 1}"): 1 for i in range(1, 6)}
    edges.update({("E", "E3"): 1, ("C", "E1"): 1})
    points: list[tuple] = []
    if vid == "a":
        points += [
            pt("at_e4", "E3", {"E4": 1}),
            pt("at_e2", "E3", {"E2": 1}),
            pt("at_e", "E3", {"E": 1}),
            pt("generic_e3", "E3"),
            pt("at_e1", "E2", {"E1": 1}),
            pt("generic_e2", "E2"),
            pt("at_c", "E1", {"C": 1}),
            pt("generic_e1", "E1"),
            pt("generic_e", "E"),
            pt("at_e5", "E4", {"E5": 1}),
            pt("generic_e4", "E4"),
            pt("at_e6", "E5", {"E6": 1}),
            pt("generic_e5", "E5"),
        ]
    blocks(curves, edges, "E6", E7_PARTITIONS[vid], points)
    points.append(pt("generic_e6", "E6"))
    anti_k = {"C": 1, "E1": 2, "E2": 3, "E3": 4, "E4": 3, "E5": 2, "E6": 1, "E": 2}
    return config(f"E7-{vid}", curves, edges, anti_k, points)


def case_e7() -> dict:
    configs = [(vid, _e7_config(vid)) for vid in E7_PARTITIONS]
    e3_chambers = chambers(
        configs[0][1],
        4,
        [
            (
                0,
                3,
                {
                    "E1": (0, "1/3"),
                    "E2": (0, "2/3"),
                    "E4": (0, "3/4"),
                    "E5": (0, "1/2"),
                    "E6": (0, "1/4"),
                    "E": (0, "1/2"),
                },
                (1, 0, "-1/12"),
                (0, "1/12"),
            ),
            (
                3,
                4,
                {
                    "C": (-3, 1),
                    "E1": (-2, 1),
                    "E2": (-1, 1),
                    "E4": (0, "3/4"),
                    "E5": (0, "1/2"),
                    "E6": (0, "1/4"),
                    "E": (0, "1/2"),
                },
                (4, -2, "1/4"),
                (1, "-1/4"),
            ),
        ],
    )
    flags = [
        flag_row(
            "a",
            "E3",
            "7/3",
            [
                point_row("at_e4", "11/6"),
                point_row("at_e2", "5/3"),
                point_row("at_e", "5/4"),
                point_row("generic_e3", "1/12"),
            ],
            chmb=e3_chambers,
        ),
        flag_row(
            "a",
            "E2",
            "5/3",
            [point_row("at_e1", 1), point_row("generic_e2", "1/9")],
        ),
        flag_row(
            "a",
            "E1",
            1,
            [point_row("at_c", "1/3"), point_row("generic_e1", "1/6")],
        ),
        flag_row("a", "E", "5/4", [point_row("generic_e", "1/6")]),
        flag_row(
            "a",
            "E4",
            "11/6",
            [point_row("at_e5", "4/3"), point_row("generic_e4", "1/9")],
        ),
        flag_row(
            "a",
            "E5",
            "4/3",
            [point_row("at_e6", "5/6"), point_row("generic_e5", "1/6")],
        ),
    ]
    for vid, partition in E7_PARTITIONS.items():
        pts = [
            point_row(f"root_b{i}", E7_ROOT_SW[length])
            for i, length in enumerate(partition, 1)
        ]
        pts.append(point_row("generic_e6", "2/9"))
        flags.append(flag_row(vid, "E6", "5/6", pts))
    return case("E7", "3/7", configs=configs, flags=flags)


# -- E8 ------------------------------------------------------------------


def case_e8() -> dict:
    curves = [("C", -1, "minus_one")] + [
        (f"E{i}", -2, "minus_two") for i in range(1, 8)
    ]
    curves.append(("E", -2, "minus_two"))
    edges = {(f"E{i}", f"E{i + 1}"): 1 for i in range(1, 7)}
    edges.update({("E", "E3"): 1, ("C", "E7"): 1})
    cfg = config(
        "E8",
        curves,
        edges,
        {
            "C": 1,
            "E1": 2,
            "E2": 4,
            "E3": 6,
            "E4": 5,
            "E5": 4,
            "E6": 3,
            "E7": 2,
            "E": 3,
        },
        points=[
            pt("at_e2", "E3", {"E2": 1}),
            pt("at_e4", "E3", {"E4": 1}),
            pt("at_e", "E3", {"E": 1}),
            pt("generic_e3", "E3"),
            pt("at_e1", "E2", {"E1": 1}),
            pt("generic_e2", "E2"),
            pt("generic_e1", "E1"),
            pt("generic_e", "E"),
            pt("at_e5", "E4", {"E5": 1}),
            pt("generic_e4", "E4"),
            pt("at_e6", "E5", {"E6": 1}),
            pt("generic_e5", "E5"),
            pt("at_e7", "E6", {"E7": 1}),
            pt("generic_e6", "E6"),
            pt("at_c", "E7", {"C": 1}),
            pt("generic_e7", "E7"),
        ],
    )
    e3_chambers = chambers(
        cfg,
        6,
        [
            (
                0,
                5,
                {
                    "E1": (0, "1/3"),
                    "E2": (0, "2/3"),
                    "E4": (0, "4/5"),
                    "E5": (0, "3/5"),
                    "E6": (0, "2/5"),
                    "E7": (0, "1/5"),
                    "E": (0, "1/2"),
                },
                (1, 0, "-1/30"),
                (0, "1/30"),
            ),
            (
                5,
                6,
                {
                    "C": (-5, 1),
                    "E1": (0, "1/3"),
                    "E2": (0, "2/3"),
                    "E4": (-1, 1),
                    "E5": (-2, 1),
                    "E6": (-3, 1),
                    "E7": (-4, 1),
                    "E": (0, "1/2"),
                },
                (6, -2, "1/6"),
                (1, "-1/6"),
            ),
        ],
    )
    return case(
        "E8",
        "3/11",
        configs=[("base", cfg)],
        flags=[
            flag_row(
                "base",
                "E3",
                "11/3",
                [
                    point_row("at_e2", "5/2"),
                    point_row("at_e4", 3),
                    point_row("at_e", "17/9"),
                    point_row("generic_e3", "1/18"),
                ],
                chmb=e3_chambers,
            ),
            flag_row(
                "base",
                "E2",
                "5/2",
                [point_row("at_e1", "4/3"), point_row("generic_e2", "1/12")],
            ),
            flag_row("base", "E1", "4/3", [point_row("generic_e1", "1/6")]),
            flag_row("base", "E", "17/9", [point_row("generic_e", "1/9")]),
            flag_row(
                "base",
                "E4",
                3,
                [point_row("at_e5", "7/3"), point_row("generic_e4", "1/15")],
            ),
            flag_row(
                "base",
                "E5",
                "7/3",
                [point_row("at_e6", "5/3"), point_row("generic_e5", "1/12")],
            ),
            flag_row(
                "base",
                "E6",
                "5/3",
                [point_row("at_e7", 1), point_row("generic_e6", "1/9")],
            ),
            flag_row(
                "base",
                "E7",
                1,
                [point_row("at_c", "1/3"), point_row("generic_e7", "1/6")],
            ),
        ],
    )


# -- emission and verification ---------------------------------------------

ALL_CASES = (
    case_a1_nodal,
    case_a1_cuspidal,
    case_a2_nodal,
    case_a2_cuspidal,
    case_a3,
    case_a4,
    case_a5,
    case_a6,
    case_a7_reducible,
    case_a7_irreducible,
    case_a8,
    case_d4,
    case_d5,
    case_d6,
    case_d7,
    case_d8,
    case_e6,
    case_e7,
    case_e8,
)


def emit(case_dict: dict) -> None:
    directory = CATALOG / case_dict["name"]
    directory.mkdir(parents=True)
    entries = []
    for cid, cfg in case_dict["configs"]:
        fname = f"config_{cid}.json"
        save(cfg, directory / fname)
        entry: dict = {"id": cid, "file": fname}
        if cid in case_dict["blowups"]:
            entry["blowup"] = case_dict["blowups"][cid]
        entries.append(entry)
    expected: dict = {
        "case": case_dict["name"],
        "delta": case_dict["delta"],
        "configs": entries,
        "flags": case_dict["flags"],
    }
    if case_dict["class_bounds"]:
        expected["class_bounds"] = case_dict["class_bounds"]
    (directory / "expected.json").write_text(
        json.dumps(expected, indent=2) + "\n", encoding="utf-8"
    )


def main() -> int:
    if CATALOG.exists():
        shutil.rmtree(CATALOG)
    CATALOG.mkdir(parents=True)

    n_configs = n_flags = 0
    for build in ALL_CASES:
        data = build()
        emit(data)
        n_configs += len(data["configs"])
        n_flags += len(data["flags"])
    print(f"wrote {len(ALL_CASES)} cases, {n_configs} configs, {n_flags} flag rows")

    failures = 0
    for name in case_names(CATALOG):
        record = load_case(name, CATALOG)
        report = verify_case(record)
        bad = [row for row in report.rows if not row.passed]
        status = "PASS" if not bad else "FAIL"
        print(f"  {name}: {len(report.rows)} rows {status}")
        for row in bad:
            print(f"    {row.render()}")
            failures += 1
    if failures:
        print(f"{failures} rows FAILED")
        return 1
    print("all rows verified")

    # the composite table reads its deltas from the case names just written
    try:
        table_failures = verify_main_theorem_table(CATALOG)
    except SchemaError as exc:
        table_failures = (str(exc),)
    for failure in table_failures:
        print(f"  table: {failure}")
    if table_failures:
        print("composite table FAILED")
        return 1
    print("composite table verified")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
