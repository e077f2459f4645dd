"""Weight vectors and exact CDF tables of base-N weighted Cantor measures.

A weight vector ``alpha`` is a point of the standard simplex: N nonnegative
exact rationals summing to one.  It determines the unique Borel probability
measure on ``[0, 1]`` that splits its mass over the N branches
``x -> (x + n) / N`` with weights ``alpha_n``.  The measure of the depth-k
N-adic interval addressed by digits ``n_0..n_{k-1}`` is the product
``alpha_{n_0} * ... * alpha_{n_{k-1}}``, which makes CDF values on the
depth-k grid exactly computable.

All arithmetic in this module is exact rational; floats appear only when the
caller evaluates the CDF interpolant at a float.  Every type is immutable and
every operation is a pure function, so concurrent use needs no locking.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Sequence

from .errors import (
    BadDigit,
    DepthOverflow,
    MeshMismatch,
    NotASimplexPoint,
    OutOfDomain,
    OutOfRange,
)
from .rational import RationalLike, as_fraction, format_rational, parse_rational

#: Default cap on the number of table entries N**k (about 4.3e7).
DEFAULT_DEPTH_CAP = 3**16

#: Environment variable overriding the cap for CLI and library defaults.
DEPTH_CAP_ENV = "CANTOR_DEPTH_CAP"


def depth_cap() -> int:
    """Return the active N**k cap: env override or :data:`DEFAULT_DEPTH_CAP`."""
    raw = os.environ.get(DEPTH_CAP_ENV)
    if raw is None:
        return DEFAULT_DEPTH_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{DEPTH_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 2:
        raise ValueError(f"{DEPTH_CAP_ENV} must be at least 2, got {cap}")
    return cap


def _check_depth(n_base: int, k: int, cap: int | None) -> int:
    """Validate ``k >= 1`` and ``n_base**k`` against the cap; return ``n_base**k``."""
    if k < 1:
        raise OutOfRange(f"depth must be a positive integer, got {k}")
    limit = cap if cap is not None else depth_cap()
    size = n_base**k
    if size > limit:
        raise DepthOverflow(
            f"{n_base}**{k} = {size} table entries exceed the cap {limit}"
        )
    return size


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
        if any(w < 0 for w in coerced):
            raise NotASimplexPoint(f"negative weight in {coerced}")
        total = sum(coerced)
        if total != 1:
            raise NotASimplexPoint(f"weights sum to {total}, not 1")

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

    @property
    def is_interior(self) -> bool:
        """True iff every weight is below 1 (no Dirac component)."""
        return not self.is_degenerate

    def __len__(self) -> int:
        return len(self.weights)

    def __getitem__(self, index: int) -> Fraction:
        return self.weights[index]

    def __iter__(self):
        return iter(self.weights)

    def __str__(self) -> str:
        return ",".join(format_rational(w) for w in self.weights)


def weight_vector(values: Iterable[RationalLike]) -> WeightVector:
    """Build a validated :class:`WeightVector` from exact rational entries.

    Raises
    ------
    NotASimplexPoint
        If any entry is negative or the entries do not sum to 1 exactly.
    """
    return WeightVector(tuple(values))


def parse_weights(text: str) -> WeightVector:
    """Parse ``"1/2,0,1/2"``; an empty or non-rational entry is a NotASimplexPoint."""
    try:
        values = [parse_rational(p) for p in text.split(",")]
    except ValueError as exc:
        raise NotASimplexPoint(f"bad weight list {text!r}: {exc}") from exc
    return weight_vector(values)


def kronecker_power(w: WeightVector, k: int, cap: int | None = None) -> WeightVector:
    """Return ``beta`` of length ``N**k`` with ``beta_n`` the digit product of n.

    Index convention: ``n = n_0 + n_1*N + ... + n_{k-1}*N**(k-1)`` with ``n_0``
    the least-significant digit, and ``beta_n = prod_l alpha_{n_l}``.  The two
    measures induced by ``w`` and ``beta`` coincide, which is what makes
    depth-k tables computable at depth 1 over ``beta``.
    """
    _check_depth(w.n_branches, k, cap)
    beta: tuple[Fraction, ...] = w.weights
    # Prepending the most-significant digit keeps n_0 least significant.
    for _ in range(k - 1):
        beta = tuple(a * b for a in w.weights for b in beta)
    return WeightVector(beta)


def interval_mass(w: WeightVector, digits: Sequence[int]) -> Fraction:
    """Mass of the depth-k N-adic interval addressed by base-N ``digits``.

    Returns ``prod_l alpha_{digits[l]}``, the increment of the CDF across the
    interval ``[x, x + N**-k]`` with ``x = sum_l digits[l] * N**(l-k)``.
    """
    n = w.n_branches
    mass = Fraction(1)
    for d in digits:
        if not 0 <= d < n:
            raise BadDigit(f"digit {d} out of range 0..{n - 1}")
        mass *= w.weights[d]
    return mass


@dataclass(frozen=True)
class CdfTable:
    """Exact CDF samples on the uniform depth-k grid ``j / N**k``.

    ``points[j] = (j / N**k, F(j / N**k))`` for ``j = 0 .. N**k``, where F is
    the CDF of the measure generated by the weight vector of base ``n_base``.
    Linear interpolation between consecutive points gives the depth-k
    interpolant of the CDF.
    """

    depth: int
    n_base: int
    points: tuple[tuple[Fraction, Fraction], ...]

    @property
    def mesh_size(self) -> int:
        """Number of grid cells, ``N**depth``."""
        return len(self.points) - 1

    def to_csv(self) -> str:
        lines = ["x,F"]
        lines += [f"{format_rational(x)},{format_rational(f)}" for x, f in self.points]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {
                "depth": self.depth,
                "points": [
                    [format_rational(x), format_rational(f)] for x, f in self.points
                ],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "CdfTable":
        data = json.loads(text)
        depth = int(data["depth"])
        points = tuple(
            (parse_rational(x), parse_rational(f)) for x, f in data["points"]
        )
        cells = len(points) - 1
        n_base = round(cells ** (1.0 / depth))
        # Float root may be off by one for large grids; repair by neighbor check.
        while n_base**depth < cells:
            n_base += 1
        while n_base > 2 and (n_base - 1) ** depth >= cells:
            n_base -= 1
        if n_base**depth != cells:
            raise ValueError(f"{cells} cells is not a perfect depth-{depth} power")
        return cls(depth=depth, n_base=n_base, points=points)


def cdf_table(w: WeightVector, k: int, cap: int | None = None) -> CdfTable:
    """Exact depth-k CDF table: cumulative sums of the k-fold Kronecker power."""
    size = _check_depth(w.n_branches, k, cap)
    beta = kronecker_power(w, k, cap)
    values = (Fraction(0),) + tuple(accumulate(beta.weights))
    points = tuple(
        (Fraction(j, size), f) for j, f in enumerate(values)
    )
    return CdfTable(depth=k, n_base=w.n_branches, points=points)


def cdf_eval(table: CdfTable, x: RationalLike | float):
    """Evaluate the piecewise-linear interpolant of ``table`` at ``x``.

    Exact ``Fraction`` output for rational ``x``; float output for float ``x``.
    """
    if isinstance(x, float):
        if not 0.0 <= x <= 1.0:
            raise OutOfDomain(f"x = {x} outside [0, 1]")
        cells = table.mesh_size
        j = min(int(x * cells), cells - 1)
        f_lo = float(table.points[j][1])
        f_hi = float(table.points[j + 1][1])
        return f_lo + (x * cells - j) * (f_hi - f_lo)
    xq = as_fraction(x)
    if not 0 <= xq <= 1:
        raise OutOfDomain(f"x = {xq} outside [0, 1]")
    cells = table.mesh_size
    j = min(int(xq * cells), cells - 1)
    f_lo = table.points[j][1]
    f_hi = table.points[j + 1][1]
    return f_lo + (xq * cells - j) * (f_hi - f_lo)


def cdf_sup_distance(a: CdfTable, b: CdfTable) -> Fraction:
    """Sup distance of two interpolants sharing the same grid.

    Both interpolants are piecewise linear on the same breakpoints, so the
    supremum of their difference is attained at a breakpoint; the result is
    exact.  Note this is the distance between the depth-k interpolants, not
    between the underlying true CDFs.
    """
    if len(a.points) != len(b.points):
        raise MeshMismatch(
            f"grids differ: {a.mesh_size} cells vs {b.mesh_size} cells"
        )
    return max(abs(fa - fb) for (_, fa), (_, fb) in zip(a.points, b.points))
