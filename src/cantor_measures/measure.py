"""Weight vectors and exact CDF tables of base-N weighted Cantor measures.

A weight vector ``alpha`` is a point of the standard simplex: N nonnegative
exact rationals summing to one.  It determines the unique Borel probability
measure on ``[0, 1]`` that splits its mass over the N branches
``x -> (x + n) / N`` with weights ``alpha_n``.  The measure of the depth-k
N-adic interval addressed by digits ``n_0..n_{k-1}`` is the product
``alpha_{n_0} * ... * alpha_{n_{k-1}}``, which makes CDF values on the
depth-k grid exactly computable.

CDF tables are integers.  With A the lcm of the weight denominators every
weight is ``p_n / A``, every cell mass is a digit product of the integers
``p_n`` over ``A**k``, and every depth-k CDF value is a cumulative sum of
those products over the same denominator.  A table stores these integers
only; the exact ``Fraction`` pairs ``(j / N**k, F)`` are built per index on
request.  Rendering writes both coordinates in lowest terms, block by block:
the grid column follows the self-similarity of ``j / N**k`` and needs no gcd
for j coprime to N, and the F column takes its gcds in bulk.
This module uses no floats.  Every type is immutable and every operation is
a pure function, so concurrent use needs no locking.
"""
from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat

from .errors import (
    DepthOverflow,
    MeshMismatch,
    NotASimplexPoint,
    OutOfDomain,
    OutOfRange,
)
from .rational import (
    RationalLike, as_fraction, format_int, format_rational, parse_rational
)

#: Cap on the number of table entries N**k (about 4.8e6).
DEPTH_CAP = 3**14

#: Rows of a CDF table rendered per joined block of text.
BLOCK_ROWS = 4096


def _check_depth(n_base: int, k: int) -> None:
    """Raise unless ``k >= 1`` and ``n_base**k <= DEPTH_CAP``."""
    if k < 1:
        raise OutOfRange(f"depth must be a positive integer, got {k}")
    # From this exponent on 2**k passes the cap, so a huge N**k is never built.
    if n_base ** min(k, DEPTH_CAP.bit_length()) > DEPTH_CAP:
        raise DepthOverflow(f"{n_base}**{k} table entries exceed the cap {DEPTH_CAP}")


@dataclass(frozen=True)
class WeightVector:
    """A validated simplex point: exact nonnegative rationals summing to 1.

    Attributes
    ----------
    weights : tuple of Fraction
        The branch weights ``alpha_0 .. alpha_{N-1}``, ``N >= 2``.
    """

    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        coerced = tuple(as_fraction(w) for w in self.weights)
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

    @property
    def is_degenerate(self) -> bool:
        """True iff some weight equals 1 (the measure is a Dirac mass)."""
        return any(w == 1 for w in self.weights)

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


def _digit_products(w: WeightVector, k: int) -> tuple[list[int], int]:
    """Integer masses of the ``N**k`` depth-k cells, and their denominator.

    With ``alpha_n = p_n / A`` (:func:`_integer_weights`), cell n has mass
    ``prod_l p_{n_l} / A**k`` over the digits of
    ``n = n_0 + n_1*N + ... + n_{k-1}*N**(k-1)``, ``n_0`` least significant.
    Depth and size are checked (:func:`_check_depth`) before any product.
    """
    _check_depth(w.n_branches, k)
    numerators, common = _integer_weights(w)
    masses = [1]
    # Prepending the most-significant digit keeps n_0 least significant.
    for _ in range(k):
        masses = [p * q for p in numerators for q in masses]
    return masses, common**k


def kronecker_power(w: WeightVector, k: int) -> WeightVector:
    """Return ``beta`` of length ``N**k`` with ``beta_n`` the digit product of n.

    Index convention: ``n = n_0 + n_1*N + ... + n_{k-1}*N**(k-1)`` with ``n_0``
    the least-significant digit, and ``beta_n = prod_l alpha_{n_l}``.  The two
    measures induced by ``w`` and ``beta`` coincide, which is what makes
    depth-k tables computable at depth 1 over ``beta``.
    """
    masses, denominator = _digit_products(w, k)
    return WeightVector(tuple(Fraction(p, denominator) for p in masses))


@dataclass(frozen=True)
class CdfTable:
    """Exact CDF samples on the uniform depth-k grid ``j / N**k``.

    ``F(j / N**k) = numerators[j] / denominator`` for ``j = 0 .. N**k``,
    where F is the CDF of the measure generated by a weight vector of base
    ``n_base``.  Linear interpolation between consecutive samples gives the
    depth-k interpolant of the CDF.  The integers are stored as given, so
    tables that scale one another by a common factor render the same text
    and have equal ``points`` but do not compare equal; :func:`cdf_table`
    always returns them with no common factor.
    """

    depth: int
    n_base: int
    numerators: tuple[int, ...]
    denominator: int

    def __post_init__(self) -> None:
        numerators = tuple(self.numerators)
        if len(numerators) != self.n_base**self.depth + 1 or self.denominator < 1:
            raise ValueError(
                f"{len(numerators)} numerators over {self.denominator} do not "
                f"form a depth-{self.depth} base-{self.n_base} table"
            )
        object.__setattr__(self, "numerators", numerators)

    @property
    def mesh_size(self) -> int:
        """Number of grid cells, ``N**depth``."""
        return len(self.numerators) - 1

    @property
    def points(self) -> "_CdfPoints":
        """The samples as exact ``(x, F)`` pairs, built per index on access."""
        return _CdfPoints(self)

    def _render(self, head: str, sep: str, end: str, tail: str) -> str:
        """``head``, then ``x{sep}F{end}`` per sample in lowest terms, then ``tail``.

        The last row ends in ``tail`` in place of ``end``.  Rows render in
        blocks of :data:`BLOCK_ROWS`; each block fills the eight pieces of
        its rows by slice and is joined once.
        """
        nums, den, n, k = self.numerators, self.denominator, self.n_base, self.depth
        reduced_dens: dict[int, str] = {}
        blocks = [head]
        for start in range(0, len(nums), BLOCK_ROWS):
            stop = min(start + BLOCK_ROWS, len(nums))
            block = nums[start:stop]
            gcds = list(map(math.gcd, block, repeat(den)))
            for g in set(gcds).difference(reduced_dens):
                reduced_dens[g] = format_int(den // g)
            reduced = list(map(operator.floordiv, block, gcds))
            out = [None, "/", None, sep, None, "/", None, end] * (stop - start)
            out[0::8], out[2::8] = _grid_terms(n, k, start, stop)
            try:
                out[4::8] = map(str, reduced)
            except ValueError:  # past the int/str digit limit
                out[4::8] = map(format_int, reduced)
            out[6::8] = map(reduced_dens.__getitem__, gcds)
            if stop == len(nums):
                out[-1] = tail
            blocks.append("".join(out))
        return "".join(blocks)

    def to_csv(self) -> str:
        return self._render("x,F\n", ",", "\n", "\n")

    def to_json(self) -> str:
        # Equal to json.dumps({"depth": ..., "points": [[x, F], ...]}): the
        # coordinates are digits and "/", which JSON does not escape.
        return self._render(
            f'{{"depth": {self.depth}, "points": [["', '", "', '"], ["', '"]]}'
        )


def _grid_terms(n: int, k: int, start: int, stop: int) -> tuple[list[str], list[str]]:
    """Numerators and denominators of ``j / n**k`` in lowest terms, ``start <= j < stop``.

    The grid is self-similar: ``j / n**k`` for a multiple j of n is
    ``(j / n) / n**(k - 1)``, one level up.  A residue coprime to n is
    already in lowest terms, so only residues sharing a factor with a
    composite n take a gcd.
    """
    if k == 0:  # j is 0 or 1
        return list(map(str, range(start, stop))), ["1"] * (stop - start)
    cells = n**k
    js = range(start, stop)
    nums, dens = [""] * len(js), [str(cells)] * len(js)
    for r in range(1, n):
        at = (r - start) % n
        if math.gcd(r, n) == 1:
            nums[at::n] = map(str, js[at::n])
        else:
            gcds = list(map(math.gcd, js[at::n], repeat(cells)))
            nums[at::n] = map(str, map(operator.floordiv, js[at::n], gcds))
            dens[at::n] = map(str, map(operator.floordiv, repeat(cells), gcds))
    at = -start % n
    nums[at::n], dens[at::n] = _grid_terms(n, k - 1, (start + at) // n, (stop - 1) // n + 1)
    return nums, dens


class _CdfPoints(Sequence):
    """Read-only view of a :class:`CdfTable` as exact ``(x, F)`` pairs.

    Its length is the table's; a pair is built only when indexed.
    """

    __slots__ = ("_table",)

    def __init__(self, table: CdfTable) -> None:
        self._table = table

    def __len__(self) -> int:
        return len(self._table.numerators)

    def __getitem__(self, index: int) -> tuple[Fraction, Fraction]:
        j = range(len(self))[index]  # negative indices and IndexError as for a tuple
        t = self._table
        return Fraction(j, t.mesh_size), Fraction(t.numerators[j], t.denominator)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]


def cdf_table(w: WeightVector, k: int) -> CdfTable:
    """Exact depth-k CDF table: cumulative sums of the integer cell masses."""
    masses, denominator = _digit_products(w, k)
    return CdfTable(
        depth=k,
        n_base=w.n_branches,
        numerators=tuple(accumulate(masses, initial=0)),
        denominator=denominator,
    )


def cdf_eval(table: CdfTable, x: RationalLike) -> Fraction:
    """Exact value of the piecewise-linear interpolant of ``table`` at ``x``.

    A float ``x`` raises ``TypeError`` (:func:`~.rational.as_fraction`).
    """
    cells, nums, den = table.mesh_size, table.numerators, table.denominator
    xq = as_fraction(x)
    if not 0 <= xq <= 1:
        raise OutOfDomain(f"x = {xq} outside [0, 1]")
    j = min(int(xq * cells), cells - 1)
    return Fraction(nums[j] + (xq * cells - j) * (nums[j + 1] - nums[j]), den)


def cdf_sup_distance(a: CdfTable, b: CdfTable) -> Fraction:
    """Sup distance of two interpolants sharing the same grid.

    Both interpolants are piecewise linear on the same breakpoints, so the
    supremum of their difference is attained at a breakpoint:
    ``max_j |S_a[j] D_b - S_b[j] D_a| / (D_a D_b)`` in integers.  Note this is
    the distance between the depth-k interpolants, not between the
    underlying true CDFs.
    """
    if a.mesh_size != b.mesh_size:
        raise MeshMismatch(
            f"grids differ: {a.mesh_size} cells vs {b.mesh_size} cells"
        )
    da, db = a.denominator, b.denominator
    gap = max(abs(sa * db - sb * da) for sa, sb in zip(a.numerators, b.numerators))
    return Fraction(gap, da * db)
