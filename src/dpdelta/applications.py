"""Composite delta values, stability verdicts and threefold multipliers.

The certified per-case minima, read from the catalog's ``expected.json``
files, combine into a single table: a surface whose singular points have
several resolution types takes the minimum of the per-type values, where
the types whose value depends on extra geometric data (the nodal/cuspidal
shape of the curves through the point, or the reducibility of the branch
divisor) contribute one value per completion. The composite answer is only
defined when every completion yields the same minimum; otherwise the
missing flag genuinely matters.
"""
from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Sequence

from .catalog import case_names, catalog_root, load_case
from .errors import MissingFlag, SchemaError
from .rationals import format_rational

SMOOTH_DELTA_CUSPIDAL = Fraction(15, 7)
SMOOTH_DELTA_GENERAL = Fraction(12, 5)


@dataclass(frozen=True)
class SingularityEntry:
    """One singular point type, with its optional extra geometric flags.

    `cuspidal` records whether some curve of the halfanticanonical pencil
    through the point is cuspidal (meaningful for A1 and A2 only);
    `reducible_r` records whether the branch sextic is reducible
    (meaningful for A7 only). A flag left as None means "not specified".
    """

    type: str
    cuspidal: bool | None = None
    reducible_r: bool | None = None


def base_delta(entry: SingularityEntry) -> Fraction:
    """Certified delta of a surface whose only singularity is `entry`.

    Raises MissingFlag when the value depends on an unspecified flag and
    SchemaError when a flag is supplied for a type it does not apply to.
    """
    values = _candidate_values(entry)
    if len(values) != 1:
        raise MissingFlag(
            f"{entry.type} needs an extra flag to pin down its delta value"
        )
    return values[0]


def _candidate_values(entry: SingularityEntry) -> tuple[Fraction, ...]:
    t = entry.type
    try:
        field, deltas = _type_deltas(catalog_root())[t]
    except KeyError:
        raise SchemaError(f"unknown singularity type {t!r}") from None
    for other in _FLAG_NAMES:
        if other != field and getattr(entry, other) is not None:
            raise SchemaError(f"{t} takes no {_FLAG_NAMES[other] if field else 'extra'} flag")
    value = getattr(entry, field) if field else None
    return tuple(deltas.values()) if value is None else (deltas[value],)


@functools.lru_cache(maxsize=None)
def _type_deltas(root: Path) -> dict[str, tuple[str | None, dict[bool | None, Fraction]]]:
    """Each type's flag field (or None) and its certified delta per flag value,
    read from the catalog cases named ``<type>`` or ``<type>-<suffix>``."""
    table: dict = {}
    for name in case_names(root):
        t, _, suffix = name.partition("-")
        if not _TYPE_RE.match(t) or (suffix and suffix not in _SUFFIXES):
            raise SchemaError(f"catalog case {name!r} is not <type> or <type>-<suffix>")
        field, value = _SUFFIXES[suffix] if suffix else (None, None)
        known, deltas = table.setdefault(t, (field, {}))
        if known != field or value in deltas:
            raise SchemaError(f"catalog case {name} clashes with another {t} case")
        deltas[value] = load_case(name, root).delta
    for t, (field, deltas) in table.items():
        if field is not None and set(deltas) != {False, True}:
            raise SchemaError(f"catalog has {t} for only one {_FLAG_NAMES[field]} value")
    return table


def main_theorem_delta(entries: Sequence[SingularityEntry]) -> Fraction:
    """Delta of a surface with the given singular points.

    Every entry contributes its candidate values (one per completion of its
    unspecified flags); the answer is min over entries, evaluated for every
    completion. When all completions agree the common value is returned,
    otherwise MissingFlag is raised.
    """
    if not entries:
        raise SchemaError("at least one singularity is required")
    candidate_sets = [_candidate_values(e) for e in entries]
    minima = {min(choice) for choice in itertools.product(*candidate_sets)}
    if len(minima) != 1:
        raise MissingFlag(
            "the composite delta depends on unspecified flags: "
            + ", ".join(sorted(format_rational(m) for m in minima))
        )
    return minima.pop()


_ENTRY_RE = re.compile(r"^(\d*)([ADE]\d+)(?::([a-z]+))?$")
_TYPE_RE = re.compile(r"^[ADE]\d+$")
_FLAG_NAMES = {"cuspidal": "nodal/cuspidal", "reducible_r": "branch-reducibility"}
_SUFFIXES = {
    "nodal": ("cuspidal", False),
    "cusp": ("cuspidal", True),
    "cuspidal": ("cuspidal", True),
    "red": ("reducible_r", True),
    "reducible": ("reducible_r", True),
    "irr": ("reducible_r", False),
    "irred": ("reducible_r", False),
    "irreducible": ("reducible_r", False),
}


def parse_singularities(text: str) -> tuple[SingularityEntry, ...]:
    """Parse a '+'-joined singularity list such as ``2A1+A2:cusp`` or ``A7:red``."""
    entries: list[SingularityEntry] = []
    for chunk in text.split("+"):
        chunk = chunk.strip()
        match = _ENTRY_RE.match(chunk)
        if not match:
            raise SchemaError(f"cannot parse singularity {chunk!r}")
        count = int(match.group(1) or "1")
        if count < 1:
            raise SchemaError(f"bad multiplicity in {chunk!r}")
        kwargs: dict[str, bool] = {}
        if match.group(3) is not None:
            if match.group(3) not in _SUFFIXES:
                raise SchemaError(f"unknown suffix {match.group(3)!r} in {chunk!r}")
            field, value = _SUFFIXES[match.group(3)]
            kwargs[field] = value
        entry = SingularityEntry(match.group(2), **kwargs)
        _candidate_values(entry)  # validate type/flag combination eagerly
        entries.extend([entry] * count)
    if not entries:
        raise SchemaError("empty singularity list")
    return tuple(entries)


@dataclass(frozen=True)
class TableRow:
    """One printed row: the singularity combinations, an optional side
    condition on the completion flags, and the common delta value."""

    combos: tuple[str, ...]
    condition: str | None
    delta: Fraction


MAIN_THEOREM_ROWS: tuple[TableRow, ...] = (
    TableRow(
        tuple(f"{k}A1" if k > 1 else "A1" for k in range(1, 9)),
        "all nodal",
        Fraction(2),
    ),
    TableRow(
        tuple(f"{k}A1" if k > 1 else "A1" for k in range(1, 9)),
        "some cuspidal",
        Fraction(9, 5),
    ),
    TableRow(
        (
            "A2", "A2+A1", "A2+2A1", "A2+3A1", "A2+4A1",
            "2A2", "2A2+A1", "2A2+2A1", "3A2", "3A2+A1", "4A2",
        ),
        "all A2 nodal",
        Fraction(12, 7),
    ),
    TableRow(
        (
            "A2", "A2+A1", "A2+2A1", "A2+3A1", "A2+4A1",
            "2A2", "2A2+A1", "2A2+2A1", "3A2", "3A2+A1", "4A2",
        ),
        "some A2 cuspidal",
        Fraction(3, 2),
    ),
    TableRow(
        ("A4", "A4+A1", "A4+2A1", "A4+A2", "A4+A2+A1", "A4+A3", "2A4"),
        None,
        Fraction(4, 3),
    ),
    TableRow(
        ("A5", "A5+A1", "A5+2A1", "A5+A2", "A5+A2+A1", "A5+A3"),
        None,
        Fraction(6, 5),
    ),
    TableRow(("A6", "A6+A1"), None, Fraction(9, 8)),
    TableRow(("A7", "A7+A1"), "R irreducible", Fraction(18, 17)),
    TableRow(("A7", "A7+A1"), "R reducible", Fraction(1)),
    TableRow(
        (
            "A8", "D4", "D4+A1", "D4+2A1", "D4+3A1", "D4+4A1",
            "D4+A2", "D4+A3", "2D4",
        ),
        None,
        Fraction(1),
    ),
    TableRow(("D5", "D5+A1", "D5+2A1", "D5+A2", "D5+A3"), None, Fraction(6, 7)),
    TableRow(("D6", "D6+A1", "D6+2A1"), None, Fraction(3, 4)),
    TableRow(("D7",), None, Fraction(2, 3)),
    TableRow(("D8", "E6", "E6+A1", "E6+A2"), None, Fraction(3, 5)),
    TableRow(("E7", "E7+A1"), None, Fraction(3, 7)),
    TableRow(("E8",), None, Fraction(3, 11)),
)


def _combo_types(combo: str) -> tuple[str, ...]:
    types: list[str] = []
    for chunk in combo.split("+"):
        match = _ENTRY_RE.match(chunk.strip())
        if not match or match.group(3) is not None:
            raise SchemaError(f"bad combination {combo!r}")
        types.extend([match.group(2)] * int(match.group(1) or "1"))
    return tuple(types)


def row_assignments(row: TableRow, combo: str) -> Iterator[tuple[SingularityEntry, ...]]:
    """Every completion of a combination that satisfies the row condition.

    Types the condition does not constrain are left unflagged, so evaluating
    the assignment still quantifies over their completions.
    """
    types = _combo_types(combo)
    if row.condition is None:
        yield tuple(SingularityEntry(t) for t in types)
        return
    if row.condition in ("all nodal", "some cuspidal"):
        target, need_some = "A1", row.condition == "some cuspidal"
    elif row.condition in ("all A2 nodal", "some A2 cuspidal"):
        target, need_some = "A2", row.condition == "some A2 cuspidal"
    elif row.condition in ("R irreducible", "R reducible"):
        reducible = row.condition == "R reducible"
        yield tuple(
            SingularityEntry(t, reducible_r=reducible) if t == "A7" else SingularityEntry(t)
            for t in types
        )
        return
    else:
        raise SchemaError(f"unknown table condition {row.condition!r}")
    slots = [i for i, t in enumerate(types) if t == target]
    for cusp_flags in itertools.product((False, True), repeat=len(slots)):
        if need_some != any(cusp_flags):
            continue
        flags = dict(zip(slots, cusp_flags))
        yield tuple(
            SingularityEntry(t, cuspidal=flags[i]) if i in flags else SingularityEntry(t)
            for i, t in enumerate(types)
        )


def verify_main_theorem_table() -> tuple[str, ...]:
    """Check every printed row against the composite rule; returns failures."""
    failures: list[str] = []
    for row in MAIN_THEOREM_ROWS:
        for combo in row.combos:
            label = f"{combo} ({row.condition})" if row.condition else combo
            for entries in row_assignments(row, combo):
                try:
                    value = main_theorem_delta(entries)
                except MissingFlag as exc:
                    failures.append(f"{label}: {exc}")
                    continue
                if value != row.delta:
                    failures.append(
                        f"{label}: got {format_rational(value)}, "
                        f"table says {format_rational(row.delta)}"
                    )
    return tuple(failures)


def smooth_delta(has_cuspidal_anticanonical: bool) -> Fraction:
    """Delta of the smooth degree-1 surface, split by the pencil's shape."""
    return SMOOTH_DELTA_CUSPIDAL if has_cuspidal_anticanonical else SMOOTH_DELTA_GENERAL


# -- threefold applications ----------------------------------------------


def _cube_integral(a: int, b: int) -> Fraction:
    """int_a^b (2-u)^3 du = ((2-a)^4 - (2-b)^4) / 4."""
    return Fraction((2 - a) ** 4 - (2 - b) ** 4, 4)


def multiplier_family_1_11() -> Fraction:
    """Slope relating surface and threefold expected orders for the sextic
    double solid fibered by halfanticanonical surfaces: the nef part is
    (2-u) times the surface class on [0, 2] and the flag integral rescales
    by (3/8) * int_0^2 (2-u)^3 du."""
    return Fraction(3, 8) * _cube_integral(0, 2)


def multiplier_family_2_1() -> Fraction:
    """Same slope for the blowup along a smooth halfanticanonical-pencil
    base curve: the nef part is unscaled on [0, 1] and (2-u) times a
    pullback on [1, 2], giving (3/4) * (1 + int_1^2 (2-u)^3 du)."""
    return Fraction(3, 4) * (1 + _cube_integral(1, 2))


def threefold_delta_bound(multiplier: Fraction, surface_delta: Fraction) -> Fraction:
    """Lower bound on the threefold local delta: ratios divide by the slope."""
    return surface_delta / multiplier


def kstability_verdict(delta: Fraction) -> str:
    """Verdict from a certified delta: >1 stable, =1 semistable, <1 unstable."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    if delta > 1:
        return "stable"
    if delta == 1:
        return "semistable"
    return "unstable"
