"""Weight vectors of base-N weighted Cantor measures, and the size cap.

A weight vector ``alpha`` is a point of the standard simplex: N nonnegative
exact rationals summing to one.  It determines the unique Borel probability
measure on ``[0, 1]`` that splits its mass over the N branches
``x -> (x + n) / N`` with weights ``alpha_n``.  Every layer reads it, and
the command line parses it before any command runs.
"""
from __future__ import annotations

import math
from collections.abc import Sequence

from ._frozen import Frozen
from .errors import DepthOverflow, NotASimplexPoint
from .rational import RationalLike, as_fraction, format_rational, parse_rational

#: Cap on the number of table entries N**k (about 4.8e6).
DEPTH_CAP = 3**14


def _check_cap(size: int, what: str) -> None:
    """The one check of :data:`DEPTH_CAP`: :class:`DepthOverflow` past it."""
    if size > DEPTH_CAP:
        raise DepthOverflow(f"{what} exceeds the cap {DEPTH_CAP}")


class WeightVector(Frozen):
    """A validated simplex point: exact nonnegative rationals summing to 1.

    ``weights`` is the tuple of Fractions ``alpha_0 .. alpha_{N-1}``, ``N >= 2``.
    """

    __slots__ = ("weights",)

    def __init__(self, weights: Sequence[RationalLike]) -> None:
        coerced = tuple(as_fraction(w) for w in weights)
        object.__setattr__(self, "weights", coerced)
        if len(coerced) < 2:
            raise NotASimplexPoint("a weight vector needs at least two entries")
        negative = next((i for i, w in enumerate(coerced) if w < 0), None)
        if negative is not None:
            raise NotASimplexPoint(f"negative weight at index {negative}")
        total = sum(coerced)
        if total != 1:
            try:
                shown = f"{total.numerator}/{total.denominator}"
            except ValueError:  # past the int/str digit limit
                bits = max(total.numerator, total.denominator).bit_length()
                shown = f"a rational of about {math.ceil(bits * math.log10(2))} digits"
            raise NotASimplexPoint(f"weights sum to {shown}, not 1")

    @property
    def n_branches(self) -> int:
        return len(self.weights)

    @property
    def is_palindromic(self) -> bool:
        """True iff ``alpha_{N-1-n} == alpha_n`` for all n (symmetric measure)."""
        return self.weights == self.weights[::-1]

    def __iter__(self):
        return iter(self.weights)

    def __str__(self) -> str:
        return ",".join(format_rational(w) for w in self.weights)


def parse_weights(text: str) -> WeightVector:
    """Parse ``"1/2,0,1/2"``; an empty or non-rational entry is a NotASimplexPoint."""
    try:
        values = [parse_rational(p) for p in text.split(",")]
    except ValueError as exc:
        raise NotASimplexPoint(f"bad weight list {text!r}: {exc}") from exc
    return WeightVector(tuple(values))


def _integer_weights(w: WeightVector) -> tuple[list[int], int]:
    """Integers ``p_n`` and A with ``alpha_n = p_n / A``, A the lcm of the denominators."""
    common = math.lcm(*(a.denominator for a in w.weights))
    return [a.numerator * (common // a.denominator) for a in w.weights], common
