"""Exact rationals and JSON fields: the single serialization point.

Every file format and CLI surface in this package writes rationals as
strings "p/q" (or just "p" when the denominator is 1). Every JSON file is
read by `read_json` and every field of it by `read_field`, so each schema
error names the file and the field path.
"""
from __future__ import annotations

import json
import reprlib
from fractions import Fraction
from pathlib import Path

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


def format_rational(value: Fraction) -> str:
    """Canonical string form: "p/q", or "p" when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def read_json(path: str | Path) -> object:
    """The parsed JSON file; SchemaError naming it if missing, not UTF-8 or not JSON."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise SchemaError(f"{path}: no such file") from None
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from None


def read_field(obj: dict, key: str, kind, where: str, default=...):
    """`obj[key]` checked to be of `kind` (see `typed`), else SchemaError.

    `where` names the file or configuration and the path of `obj` in it, as
    the text before the key: "cfg.json: " at the top, "cfg.json: points[0]."
    below. An absent key gives `default`, if any; a present one, even null,
    must hold `kind`.
    """
    if key in obj:
        value = obj[key]
        return value if type(value) is kind else typed(value, kind, f"{where}{key}")
    if default is ...:
        raise SchemaError(f"{where}{key} is missing")
    return default


def typed(value: object, kind, path: str):
    """`value` checked to be of `kind`, else SchemaError naming `path`.

    A kind is `str`, `bool`, `int` (no bool), `Fraction` (returned parsed),
    `list`, `dict`, or `list[k]` / `dict[str, k]` with items of kind `k`.
    """
    if type(value) is kind:
        return value
    origin = getattr(kind, "__origin__", kind)
    if origin is Fraction:
        try:
            return parse_rational(value)
        except SchemaError:
            pass
    elif type(value) is origin:
        item = kind.__args__[-1]
        if origin is list:
            return [x if type(x) is item else typed(x, item, f"{path}[{i}]")
                    for i, x in enumerate(value)]
        return {k: typed(x, item, f"{path}.{k}") for k, x in value.items()}
    names = {str: "a string", bool: "true or false", int: "an integer",
             Fraction: "a rational", list: "a list", dict: "an object"}
    raise SchemaError(f"{path} must be {names[origin]}, got {reprlib.repr(value)}")
