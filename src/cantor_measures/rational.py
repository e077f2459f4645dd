"""Parsing and rendering helpers for exact rationals and floats.

Both directions work past the interpreter's int/str digit limit (4300 by
default) and leave it alone: they divide and conquer, and ``int()`` and
``str()`` convert only pieces of at most 640 digits, which every limit
setting allows.  A double rounded up from an exact value, or decided from an
exact enclosure, comes from here (:func:`round_up`, :func:`nearest`).
"""
from __future__ import annotations

import math
import re
from fractions import Fraction

RationalLike = Fraction | int | str

# Without re.ASCII, "\d" and "\s" would match any Unicode digit or space.
_INTEGER_RATIO = re.compile(r"\s*([+-]?\d+)(?:/(\d+))?\s*", re.ASCII)
_DECIMAL = re.compile(r"\s*[+-]?(?:\d+\.\d*|\.\d+)\s*", re.ASCII)


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


#: ``j: 10**(640 * 2**j)``, the split points of :func:`format_int`, squared
#: on demand and kept for later calls.  Keyed by j, so two threads that
#: square the same power store the same entry.
_POWERS = {0: 10**640}


def format_int(value: int) -> str:
    """Decimal digits of an integer of any size, by divide and conquer.

    As in :func:`_parse_int`, ``str()`` converts only pieces of at most 640
    digits; a larger value splits at the largest cached power of ten below
    it.  Above about 6,000 bits this beats one ``str()`` call.
    """
    if abs(value) < _POWERS[0]:
        return str(value)
    if value < 0:
        return "-" + format_int(-value)
    j = 0
    while 2 * _POWERS[j].bit_length() - 1 <= value.bit_length():  # the next may be <= value
        if j + 1 not in _POWERS:
            _POWERS[j + 1] = _POWERS[j] ** 2
        j += 1
    if _POWERS[j] > value:
        j -= 1
    high, low = divmod(value, _POWERS[j])
    return format_int(high) + format_int(low).zfill(640 << j)


def _parse_int(text: str) -> int:
    """Value of a digit string with an optional sign, in subquadratic time.

    Divide and conquer: the two halves recombine through ``* 10**half``, and
    ``int()`` reads only chunks of at most 640 digits.
    """
    if text[:1] == "-":
        return -_parse_int(text[1:])
    if len(text) <= 640:
        return int(text)
    half = len(text) // 2
    return _parse_int(text[:-half]) * 10**half + _parse_int(text[-half:])


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"``, a plain integer or a plain decimal such as ``"0.25"``.

    Digits and spaces are ASCII.  Any other form raises ``ValueError``,
    exponent notation included: the exact value of ``"1e100000000"`` alone
    would take minutes to build.
    """
    if _DECIMAL.fullmatch(text):
        whole, _, part = text.strip().partition(".")
        return Fraction(_parse_int(whole + part), 10 ** len(part))
    match = _INTEGER_RATIO.fullmatch(text)
    if match is not None:
        num, den = (_parse_int(g or "1") for g in match.groups())
        if den:
            return Fraction(num, den)
    raise ValueError(f"not a rational number: {text!r}")


def format_rational(value: Fraction) -> str:
    """Render a ``Fraction`` as ``"p/q"`` with ``q > 0`` and ``gcd(p,q) = 1``."""
    return f"{format_int(value.numerator)}/{format_int(value.denominator)}"


def round_up(x: Fraction) -> float:
    """The smallest double at least ``x``."""
    f = float(x)
    return math.nextafter(f, math.inf) if Fraction(f) < x else f


def nearest(lo: int, hi: int, d: int) -> float | None:
    """The double both ends of ``[lo / d, hi / d]`` round to, or None when they
    round apart; as rounding is monotone, every value between rounds to it."""
    value = lo / d
    return value if value == hi / d else None


def format_float(value: float) -> str:
    """Render a float with 17 significant digits (lossless round-trip)."""
    return format(float(value), ".17g")
