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
request.  Rendering writes both coordinates in lowest terms, one ``%``
template per block of rows.  Both columns follow the self-similarity of the
measure (Hutchinson, Indiana Univ. Math. J. 30, 1981): the grid column needs
no gcd for j coprime to N, and the F column of a table built by
:func:`cdf_table` copies its gcds with ``A**k`` from the depth-(k-1) table
under every digit where :func:`_digit_gcds` proves the copy exact (for a
prime or prime-power A, whenever every nonzero ``p_n`` is prime to A), and
otherwise takes one gcd per row.
This module uses no floats.  Every type is immutable and every operation is
a pure function, so concurrent use needs no locking.
"""
from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from fractions import Fraction
from itertools import accumulate, repeat

from ._frozen import Frozen
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
    Depth and size are checked before any product.
    """
    n_base = w.n_branches
    if k < 1:
        raise OutOfRange(f"depth must be a positive integer, got {k}")
    # From this exponent on 2**k passes the cap, so a huge N**k is never built.
    _check_cap(n_base ** min(k, DEPTH_CAP.bit_length()), f"a table of {n_base}**{k} entries")
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


class CdfTable(Frozen):
    """Exact CDF samples on the uniform depth-k grid ``j / N**k``.

    ``F(j / N**k) = numerators[j] / denominator`` for ``j = 0 .. N**k``,
    where F is the CDF of the measure generated by a weight vector of base
    ``n_base``.  Linear interpolation between consecutive samples gives the
    depth-k interpolant of the CDF.  The integers are stored as given, so
    tables that scale one another by a common factor render the same text
    and have equal ``points`` but do not compare equal; :func:`cdf_table`
    always returns them with no common factor.
    """

    # _weights: the integer weights of the table built by cdf_table, or unset.
    __slots__ = ("depth", "n_base", "numerators", "denominator", "_weights")

    def __init__(self, depth: int, n_base: int, numerators: Sequence[int],
                 denominator: int) -> None:
        numerators = tuple(numerators)
        if len(numerators) != n_base**depth + 1 or denominator < 1:
            raise ValueError(
                f"{len(numerators)} numerators over {denominator} do not "
                f"form a depth-{depth} base-{n_base} table"
            )
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "n_base", n_base)
        object.__setattr__(self, "numerators", numerators)
        object.__setattr__(self, "denominator", denominator)

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
        blocks of :data:`BLOCK_ROWS`, each by one ``%`` template of four
        fields per row: x's numerator and denominator, F's numerator and
        denominator.  F's gcds with the denominator come from the digit
        structure (:func:`_digit_gcds`) for a table built by
        :func:`cdf_table` where the rule holds, and from one ``math.gcd`` per
        row otherwise (hand-built, copied and unpickled tables included).
        """
        nums, den, n, k = self.numerators, self.denominator, self.n_base, self.depth
        weights = getattr(self, "_weights", None)
        digit_gcds = None if weights is None else _digit_gcds(weights, k)
        reduced_dens: dict[int, str] = {}
        row = f"%s/%s{sep}%s/%s"  # sep, end and tail hold no "%"
        line = row + end
        full = line * BLOCK_ROWS
        blocks = [head]
        for start in range(0, len(nums), BLOCK_ROWS):
            stop = min(start + BLOCK_ROWS, len(nums))
            block = nums[start:stop]
            if digit_gcds is None:
                gcds = list(map(math.gcd, block, repeat(den)))
            else:
                gcds = digit_gcds[start:stop]
            for g in set(gcds).difference(reduced_dens):
                reduced_dens[g] = format_int(den // g)
            fields = [None] * (4 * (stop - start))
            fields[0::4], fields[1::4] = _grid_terms(n, k, start, stop)
            fields[2::4] = map(operator.floordiv, block, gcds)
            fields[3::4] = map(reduced_dens.__getitem__, gcds)
            if stop < len(nums):
                template = full
            else:
                template = line * (stop - start - 1) + row + tail
            try:
                blocks.append(template % tuple(fields))
            except ValueError:  # past the int/str digit limit
                fields[2::4] = map(format_int, fields[2::4])
                blocks.append(template % tuple(fields))
        del digit_gcds  # the gcds of every row are not held while the blocks join
        return "".join(blocks)

    def to_csv(self) -> str:
        return self._render("x,F\n", ",", "\n", "\n")

    def to_json(self) -> str:
        # Equal to json.dumps({"depth": ..., "points": [[x, F], ...]}): the
        # coordinates are digits and "/", which JSON does not escape.
        return self._render(
            f'{{"depth": {self.depth}, "points": [["', '", "', '"], ["', '"]]}'
        )


def _grid_terms(n: int, k: int, start: int, stop: int) -> tuple[list[int], list[str]]:
    """Numerators and denominator texts of ``j / n**k`` in lowest terms, ``start <= j < stop``.

    The grid is self-similar: ``j / n**k`` for a multiple j of n is
    ``(j / n) / n**(k - 1)``, one level up.  A residue coprime to n is
    already in lowest terms, so only residues sharing a factor with a
    composite n take a gcd.  The numerators are ints, for a ``%s`` template.
    """
    if k == 0:  # j is 0 or 1
        return list(range(start, stop)), ["1"] * (stop - start)
    cells = n**k
    js = range(start, stop)
    nums, dens = [0] * len(js), [str(cells)] * len(js)
    for r in range(1, n):
        at = (r - start) % n
        if math.gcd(r, n) == 1:
            nums[at::n] = js[at::n]
        else:
            gcds = list(map(math.gcd, js[at::n], repeat(cells)))
            nums[at::n] = map(operator.floordiv, js[at::n], gcds)
            dens[at::n] = map(str, map(operator.floordiv, repeat(cells), gcds))
    at = -start % n
    nums[at::n], dens[at::n] = _grid_terms(n, k - 1, (start + at) // n, (stop - 1) // n + 1)
    return nums, dens


def _digit_gcds(weights: Sequence[int], k: int) -> list[int] | None:
    """``gcd(S_k[i], A**k)`` for every row i of the table :func:`cdf_table`
    builds from the integer weights ``p_n``, or None where the rule below
    does not apply.

    Notation: ``A = sum(p_n)``, ``C_d = p_0 + ... + p_(d-1)``, and ``S_l``
    is the integer depth-l table over ``A**l``, with ``S_0 = (0, 1)``.
    Self-similarity gives ``S_l[d*N**(l-1) + j] = C_d*A**(l-1) + p_d*S_(l-1)[j]``
    for ``0 <= j < N**(l-1)``, and the last row is ``A**l``.  Write
    ``G_l[i] = gcd(S_l[i], A**l)`` and ``T = A**(l-1)``.  Then the block of
    ``G_l`` under digit d follows from ``G_(l-1)`` alone:

    * If ``p_d = 0``, every row is ``C_d*T``, with gcd ``T*gcd(C_d, A)``.
    * Rows where ``S_(l-1)[j] = 0`` are ``C_d*T`` as well; rows where
      ``S_(l-1)[j] = T`` are ``C_(d+1)*T``, with gcd ``T*gcd(C_(d+1), A)``.
      Since S is nondecreasing, these are a prefix and a suffix of the
      block.  Their lengths follow from the weights: the zero rows of
      ``S_l`` number ``a*N**(l-1)`` more than those of ``S_(l-1)``, with
      ``a`` the number of leading zero weights, and the rows equal to
      ``A**l`` number ``b*N**(l-1)`` more, with ``b`` the trailing ones.
    * Every other row has ``0 < S < T``, so ``v = G_(l-1)[j]`` divides T
      and is not T.  Suppose that every nonzero ``p_n`` is prime to A and
      that every prime of A divides ``T / v``.  Take a prime q of A, of
      exponent e in A.  Since q divides ``T / v``, the q-adic order of S
      equals that of v and is below ``(l-1)*e``.  Since q does not divide
      ``p_d``, ``p_d*S`` has the same order, while ``C_d*T`` has order at
      least ``(l-1)*e``.  So the row has that order too, which is below
      ``l*e``: its gcd with ``A**l`` has the q-part of v.  Primes outside
      A divide neither gcd, so the row's gcd is v, copied from ``G_(l-1)``.

    Every prime of A divides ``T / v`` if and only if A divides
    ``(T / v)**A.bit_length()``, because ``A.bit_length()`` is at least
    every exponent in A; this is checked on the distinct values of each
    ``G_(l-1)``.  For a prime or prime-power A it always holds, so only the
    condition on the weights is left; for composite A it can fail
    (``1/6,1/6,1/6,1/6,1/6,1/6``).  A weight that shares a prime with A
    (``p_1 = 2`` in ``1/4,1/2,1/4``, or ``1/6,1/3,1/2``) returns None.
    """
    a = sum(weights)
    if any(math.gcd(p, a) != 1 for p in weights if p):
        return None
    n = len(weights)
    bounds = list(accumulate(weights, initial=0))  # C_0 .. C_N
    lead = next(d for d, p in enumerate(weights) if p)
    trail = next(d for d, p in enumerate(reversed(weights)) if p)
    gcds, zeros, ones = [1, 1], 1, 1  # G_0, and the rows of S_0 at 0 and at 1
    for level in range(k):
        top, size = a**level, n**level
        if any(pow(top // v, a.bit_length(), a) for v in set(gcds) if v != top):
            return None
        middle = gcds[zeros:size + 1 - ones]
        rows: list[int] = []
        for d, p in enumerate(weights):
            low = top * math.gcd(bounds[d], a)
            if p:
                rows += [low] * zeros
                rows += middle
                rows += [top * math.gcd(bounds[d + 1], a)] * (ones - 1)
            else:
                rows += [low] * size
        rows.append(top * a)
        gcds, zeros, ones = rows, zeros + lead * size, ones + trail * size
    return gcds


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
    table = CdfTable(
        depth=k,
        n_base=w.n_branches,
        numerators=tuple(accumulate(masses, initial=0)),
        denominator=denominator,
    )
    object.__setattr__(table, "_weights", tuple(_integer_weights(w)[0]))
    return table


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
