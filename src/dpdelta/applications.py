"""Composite delta values, stability verdicts and threefold multipliers.

The certified per-case minima, read from the catalog's ``expected.json``
files, combine into a single table: a surface whose singular points have
several resolution types takes the minimum of the per-type values. A type
the catalog splits into a pair of variants (``A1-nodal``/``A1-cuspidal``:
the shape of the halfanticanonical curves through the point;
``A7-reducible``/``A7-irreducible``: the branch divisor R) contributes one
value per variant when its variant is not given. The composite answer is
only defined when every choice of variants yields the same minimum;
otherwise the missing variant genuinely matters.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Sequence

from .catalog import case_names, catalog_root
from .errors import MissingFlag, SchemaError
from .rationals import format_rational, read_field, read_json, typed

SMOOTH_DELTA_CUSPIDAL = Fraction(15, 7)
SMOOTH_DELTA_GENERAL = Fraction(12, 5)


@dataclass(frozen=True)
class SingularityEntry:
    """One singular point type and, optionally, its variant.

    `variant` is the suffix of the catalog case that records it: ``nodal``
    or ``cuspidal`` for A1 and A2, ``reducible`` or ``irreducible`` for A7.
    None means "every variant the catalog has for this type".
    """

    type: str
    variant: str | None = None


# each variant's partner: a catalog type splits into both or neither
_PAIRS = {
    "nodal": "cuspidal", "cuspidal": "nodal",
    "irreducible": "reducible", "reducible": "irreducible",
}
_ALIASES = {"cusp": "cuspidal", "red": "reducible", "irr": "irreducible", "irred": "irreducible"}
_ENTRY_RE = re.compile(r"^(\d*)([ADE]\d+)(?::([a-z]+))?$")
_TYPE_RE = re.compile(r"^[ADE]\d+$")


# each type's stored delta per variant, None for an unsplit type
_DeltaTable = dict[str, dict[str | None, Fraction]]


def _candidate_values(entry: SingularityEntry, table: _DeltaTable) -> tuple[Fraction, ...]:
    try:
        deltas = table[entry.type]
    except KeyError:
        raise SchemaError(f"unknown singularity type {entry.type!r}") from None
    if entry.variant is None:
        return tuple(deltas.values())
    if entry.variant not in deltas:
        raise SchemaError(f"{entry.type} has no {entry.variant} variant")
    return (deltas[entry.variant],)


def _type_deltas(root: Path | str | None = None) -> _DeltaTable:
    """Each type's certified delta per variant (None for an unsplit type),
    read afresh from the catalog cases named ``<type>`` or ``<type>-<variant>``.

    Only each case's stored delta is read; `verify_case` is what checks it
    against the engine."""
    base = Path(root) if root is not None else catalog_root()
    table: _DeltaTable = {}
    for name in case_names(base):
        t, _, suffix = name.partition("-")
        variant = suffix or None
        if not _TYPE_RE.match(t) or (suffix and suffix not in _PAIRS):
            raise SchemaError(f"catalog case {name!r} is not <type> or <type>-<variant>")
        deltas = table.setdefault(t, {})
        if deltas.keys() - {_PAIRS.get(variant)}:
            raise SchemaError(f"catalog case {name} clashes with another {t} case")
        expected = base / name / "expected.json"
        data = typed(read_json(expected), dict, str(expected))
        deltas[variant] = read_field(data, "delta", Fraction, f"{expected}: ")
    for t, deltas in table.items():
        for variant in deltas:
            if variant is not None and _PAIRS[variant] not in deltas:
                raise SchemaError(f"catalog has {t}-{variant} but no {t}-{_PAIRS[variant]}")
    return table


def main_theorem_delta(entries: Sequence[SingularityEntry]) -> Fraction:
    """Delta of a surface with the given singular points.

    Every entry contributes its candidate values (one per variant when its
    variant is not given); the answer is min over entries, evaluated for
    every choice of variants. When all choices agree the common value is
    returned, otherwise MissingFlag is raised.
    """
    return _composite_delta(entries, _type_deltas())


def _composite_delta(entries: Sequence[SingularityEntry], table: _DeltaTable) -> Fraction:
    if not entries:
        raise SchemaError("at least one singularity is required")
    candidate_sets = [_candidate_values(e, table) for e in entries]
    minima = {min(choice) for choice in itertools.product(*candidate_sets)}
    if len(minima) != 1:
        raise MissingFlag(
            "the composite delta depends on unspecified flags: "
            + ", ".join(sorted(format_rational(m) for m in minima))
        )
    return minima.pop()


def parse_singularities(text: str) -> tuple[SingularityEntry, ...]:
    """Parse a '+'-joined singularity list such as ``2A1+A2:cusp`` or ``A7:red``.

    A ``:<variant>`` suffix is a catalog case suffix or one of the aliases
    ``cusp``, ``red``, ``irr`` and ``irred``. Each entry is checked against
    the catalog as it is read.
    """
    return _parse_singularities(text, _type_deltas())


def _parse_singularities(text: str, table: _DeltaTable) -> tuple[SingularityEntry, ...]:
    entries: list[SingularityEntry] = []
    for chunk in text.split("+"):
        chunk = chunk.strip()
        match = _ENTRY_RE.match(chunk)
        if not match:
            raise SchemaError(f"cannot parse singularity {chunk!r}")
        digits, t, suffix = match.groups()
        count = int(digits or "1")
        if count < 1:
            raise SchemaError(f"bad multiplicity in {chunk!r}")
        variant = _ALIASES.get(suffix, suffix)
        if variant is not None and variant not in _PAIRS:
            raise SchemaError(f"unknown suffix {suffix!r} in {chunk!r}")
        entry = SingularityEntry(t, variant)
        _candidate_values(entry, table)
        entries.extend([entry] * count)
    return tuple(entries)


@dataclass(frozen=True)
class TableRow:
    """One printed row: the singularity combinations, an optional side
    condition on the points' variants, and the common delta value."""

    combos: tuple[str, ...]
    condition: str | None
    delta: Fraction


_A1_COMBOS = tuple(f"{k}A1" if k > 1 else "A1" for k in range(1, 9))
_A2_COMBOS = (
    "A2", "A2+A1", "A2+2A1", "A2+3A1", "A2+4A1",
    "2A2", "2A2+A1", "2A2+2A1", "3A2", "3A2+A1", "4A2",
)
MAIN_THEOREM_ROWS: tuple[TableRow, ...] = (
    TableRow(_A1_COMBOS, "all nodal", Fraction(2)),
    TableRow(_A1_COMBOS, "some cuspidal", Fraction(9, 5)),
    TableRow(_A2_COMBOS, "all A2 nodal", Fraction(12, 7)),
    TableRow(_A2_COMBOS, "some A2 cuspidal", Fraction(3, 2)),
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


# printed condition -> the type it constrains, the variant it names, and
# whether all or any of that type's points must have the variant
_CONDITIONS = {
    "all nodal": ("A1", "nodal", all),
    "some cuspidal": ("A1", "cuspidal", any),
    "all A2 nodal": ("A2", "nodal", all),
    "some A2 cuspidal": ("A2", "cuspidal", any),
    "R irreducible": ("A7", "irreducible", all),
    "R reducible": ("A7", "reducible", all),
}


def _assignments(
    row: TableRow, entries: tuple[SingularityEntry, ...]
) -> Iterator[tuple[SingularityEntry, ...]]:
    """Every choice of variants for a combination that satisfies the row
    condition.

    Points the condition does not constrain keep no variant, so evaluating
    the assignment still quantifies over their variants.
    """
    if row.condition is None:
        yield entries
        return
    try:
        target, variant, quantifier = _CONDITIONS[row.condition]
    except KeyError:
        raise SchemaError(f"unknown table condition {row.condition!r}") from None
    slots = [i for i, e in enumerate(entries) if e.type == target]
    for choice in itertools.product((_PAIRS[variant], variant), repeat=len(slots)):
        if quantifier(v == variant for v in choice):
            chosen = dict(zip(slots, choice))
            yield tuple(
                SingularityEntry(e.type, chosen[i]) if i in chosen else e
                for i, e in enumerate(entries)
            )


def verify_main_theorem_table(root: Path | str | None = None) -> tuple[str, ...]:
    """Check every printed row against the composite rule on one read of
    the catalog under `root` (default `catalog_root()`); returns failures."""
    table = _type_deltas(root)
    failures: list[str] = []
    for row in MAIN_THEOREM_ROWS:
        for combo in row.combos:
            label = f"{combo} ({row.condition})" if row.condition else combo
            for entries in _assignments(row, _parse_singularities(combo, table)):
                try:
                    value = _composite_delta(entries, table)
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


def kstability_verdict(delta: Fraction) -> str:
    """Verdict from a certified delta: >1 stable, =1 semistable, <1 unstable."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    if delta > 1:
        return "stable"
    if delta == 1:
        return "semistable"
    return "unstable"
