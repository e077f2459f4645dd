"""Parsing and rendering helpers for exact rationals and floats.

Integers past the interpreter's int/str digit limit (4300 by default) go
through ``decimal.Decimal``, which is exact and leaves that limit alone.
"""
from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction

RationalLike = Fraction | int | str

_INTEGER_RATIO = re.compile(r"\s*([+-]?\d+)(?:/(\d+))?\s*")
_DECIMAL = re.compile(r"\s*[+-]?(?:\d+\.\d*|\.\d+)\s*")


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an exact input to ``Fraction``; floats are rejected.

    Accepting floats silently would turn values like ``0.1`` into the exact
    binary rational ``3602879701896397/36028797018963968``, which is almost
    never what the caller meant in an exact-arithmetic context.  Strings go
    through :func:`parse_rational`, the grammar of the command line.
    """
    if isinstance(value, float):
        raise TypeError(
            "exact rational expected; pass a Fraction, int or 'p/q' string, not a float"
        )
    if isinstance(value, str):
        return parse_rational(value)
    return Fraction(value)


def format_int(value: int) -> str:
    """Decimal digits of an integer of any size."""
    try:
        return str(value)
    except ValueError:  # past the digit limit
        return str(Decimal(value))


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"``, a plain integer or a plain decimal such as ``"0.25"``.

    Any other form raises ``ValueError``, exponent notation included: the
    exact value of ``"1e100000000"`` alone would take minutes to build.
    """
    if _DECIMAL.fullmatch(text):
        return Fraction(Decimal(text))
    match = _INTEGER_RATIO.fullmatch(text)
    if match is not None:
        num, den = (int(Decimal(g or 1)) for g in match.groups())
        if den:
            return Fraction(num, den)
    raise ValueError(f"not a rational number: {text!r}")


def format_rational(value: Fraction) -> str:
    """Render a ``Fraction`` as ``"p/q"`` with ``q > 0`` and ``gcd(p,q) = 1``."""
    return f"{format_int(value.numerator)}/{format_int(value.denominator)}"


def format_float(value: float) -> str:
    """Render a float with 17 significant digits (lossless round-trip)."""
    return format(float(value), ".17g")
