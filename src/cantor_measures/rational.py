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


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an exact input to ``Fraction``; floats are rejected.

    Accepting floats silently would turn values like ``0.1`` into the exact
    binary rational ``3602879701896397/36028797018963968``, which is almost
    never what the caller meant in an exact-arithmetic context.
    """
    if isinstance(value, float):
        raise TypeError(
            "exact rational expected; pass a Fraction, int or 'p/q' string, not a float"
        )
    return Fraction(value)


def format_int(value: int) -> str:
    """Decimal digits of an integer of any size."""
    try:
        return str(value)
    except ValueError:  # past the digit limit
        return str(Decimal(value))


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"``, a plain integer or a decimal such as ``"0.25"``."""
    match = _INTEGER_RATIO.fullmatch(text)
    try:
        if match is None:
            return Fraction(text.strip())
        num, den = match.groups()
        return Fraction(int(Decimal(num)), int(Decimal(den or 1)))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def format_rational(value: Fraction) -> str:
    """Render a ``Fraction`` as ``"p/q"`` with ``q > 0`` and ``gcd(p,q) = 1``."""
    return f"{format_int(value.numerator)}/{format_int(value.denominator)}"


def format_float(value: float) -> str:
    """Render a float with 17 significant digits (lossless round-trip)."""
    return format(float(value), ".17g")
