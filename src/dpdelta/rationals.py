"""Parsing and formatting of exact rationals.

Every file format and CLI surface in this package writes rationals as
strings "p/q" (or just "p" when the denominator is 1), so the two helpers
here are the single serialization point. `json_list` guards the lists those
strings come in.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import SchemaError

RatLike = Fraction | int | str


def parse_rational(value: RatLike) -> Fraction:
    """Turn "p/q" / "p" / int / Fraction into a canonical Fraction.

    A bool is refused: it is an int to Python, but a JSON `true` is no
    rational.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"not a rational: {value!r}") from exc
    raise SchemaError(f"not a rational: {value!r} (type {type(value).__name__})")


def json_list(value: object, what: str) -> Sequence:
    """`value` if it is a list (or tuple), else SchemaError naming `what`.

    A JSON string where a list belongs would otherwise read as the list of
    its characters: "02" as [0, 2].
    """
    if not isinstance(value, (list, tuple)):
        raise SchemaError(f"{what} must be a list, got {value!r}")
    return value


def format_rational(value: Fraction) -> str:
    """Canonical string form: "p/q", or "p" when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
