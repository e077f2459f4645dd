"""Exact rational moments of weighted Cantor measures.

The m-th moment ``I_m`` is the integral of ``x**m`` against the measure.
Splitting the integral over the N branches gives a closed recurrence

    I_m = (N**m - 1)**-1 * sum_n alpha_n * sum_{i<m} C(m,i) n**(m-i) I_i

with ``I_0 = 1``, and a depth-k generalization whose inner sums run over all
k-digit addresses.  Both are evaluated here in exact rational arithmetic.
The left-endpoint lower sum over the depth-k grid serves as an independent
brute-force check: it never exceeds ``I_m`` and converges to it as k grows,
with gap strictly below ``(1 + N**-k)**m - 1``.

Shifted moments ``J_m`` (measure translated to ``[-1/2, 1/2]``) satisfy
the same recurrence with the branch offsets ``n`` replaced by
``n - (N-1)/2``; both are solved by one integer kernel.  ``|J_m| <= 2**-m``
for every weight vector.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from .errors import BadTolerance, NotOdd, OutOfRange
from .measure import WeightVector, _check_depth, _digit_products, weight_vector
from .rational import (
    RationalLike, as_fraction, format_int, format_rational, parse_rational
)


@dataclass(frozen=True)
class MomentSequence:
    """Exact moments ``I_0..I_m`` (raw) or ``J_0..J_m`` (shifted)."""

    weights: WeightVector
    kind: str
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("raw", "shifted"):
            raise ValueError(f"kind must be 'raw' or 'shifted', got {self.kind!r}")
        if not self.values:
            raise ValueError("a moment sequence holds at least the 0-th moment")
        if self.values[0] != 1:
            raise ValueError(f"the 0-th moment must be 1, got {self.values[0]}")

    @property
    def m_max(self) -> int:
        return len(self.values) - 1

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, m: int) -> Fraction:
        return self.values[m]

    def to_csv(self) -> str:
        lines = ["m,numerator,denominator"]
        lines += [
            f"{m},{format_int(v.numerator)},{format_int(v.denominator)}"
            for m, v in enumerate(self.values)
        ]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": self.kind,
                "moments": [format_rational(v) for v in self.values],
                "weights": [format_rational(w) for w in self.weights],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "MomentSequence":
        data = json.loads(text)
        return cls(
            weights=weight_vector(parse_rational(w) for w in data["weights"]),
            kind=data["kind"],
            values=tuple(parse_rational(v) for v in data["moments"]),
        )


def _pascal_row(previous: list[int]) -> list[int]:
    """Next row of Pascal's triangle from the previous one."""
    return [1] + [previous[i - 1] + previous[i] for i in range(1, len(previous))] + [1]


def _self_similar_moments(
    w: WeightVector, offsets: Sequence[int], m_max: int, q: int = 1
) -> tuple[Fraction, ...]:
    """Moments ``E[Y**m]`` of ``Y = (c_n / q + Y') / N`` (branch n w.p. ``alpha_n``).

    The loop runs on integer numerators of ``E[(qY)**m]`` over one common
    denominator ``prod_{j<=m} A*(N**j - 1)`` (A the lcm of the weight
    denominators), which avoids per-step gcd normalization; the fractions are
    reduced once at the end.  Cost is O(m_max**2 * N) big-int operations.
    """
    if m_max < 0:
        raise OutOfRange(f"m_max must be nonnegative, got {m_max}")
    n_base = w.n_branches
    common = math.lcm(*(a.denominator for a in w.weights))
    branches = [(int(a * common), c) for a, c in zip(w.weights, offsets) if a and c]
    scaled = [1]  # scaled[i] == E[Y**i] * denom
    denom = 1
    row = [1]
    for m in range(1, m_max + 1):
        row = _pascal_row(row)
        total = 0
        for p_n, c in branches:
            acc = 0
            power = 1
            for i in range(m - 1, -1, -1):
                power *= c
                acc += scaled[i] * (row[i] * power)
            total += p_n * acc
        step = common * (n_base**m - 1)
        scaled = [u * step for u in scaled]
        scaled.append(total)
        denom *= step
    return tuple(Fraction(u, denom * q**m) for m, u in enumerate(scaled))


def exact_moments(w: WeightVector, m_max: int) -> MomentSequence:
    """Exact raw moments ``I_0..I_{m_max}``: branch offsets ``0..N-1``."""
    values = _self_similar_moments(w, range(w.n_branches), m_max)
    return MomentSequence(weights=w, kind="raw", values=values)


def exact_moments_via_depth(
    w: WeightVector, k: int, m_max: int, cap: int | None = None
) -> MomentSequence:
    """Exact raw moments via the depth-k recurrence (cross-validation path).

    Enumerates all k-digit addresses to evaluate the inner weighted power
    sums exactly, then solves the same telescoping identity at depth k.  The
    result equals :func:`exact_moments` for every k; this independence is
    what makes the pair a useful consistency check.
    """
    if m_max < 0:
        raise OutOfRange(f"m_max must be nonnegative, got {m_max}")
    n_base = w.n_branches
    size = _check_depth(n_base, k, cap)
    # digit_sums[j] = sum over addresses of (mass * (address / N**k)**j)
    digit_sums = [Fraction(0)] * (m_max + 1)
    digit_sums[0] = Fraction(1)
    for digits in product(range(n_base), repeat=k):
        mass = Fraction(1)
        for d in digits:
            mass *= w.weights[d]
        if mass == 0:
            continue
        x = Fraction(sum(d * n_base**j for j, d in enumerate(digits)), size)
        term = mass
        for j in range(1, m_max + 1):
            term *= x
            digit_sums[j] += term

    values = [Fraction(1)]
    row = [1]
    for m in range(1, m_max + 1):
        row = _pascal_row(row)
        acc = Fraction(0)
        for i in range(m):
            acc += row[i] * size ** (m - i) * values[i] * digit_sums[m - i]
        values.append(acc / (size**m - 1))
    return MomentSequence(weights=w, kind="raw", values=tuple(values))


def left_endpoint_estimate(
    w: WeightVector, k: int, m: int, cap: int | None = None
) -> Fraction:
    """Depth-k left-endpoint lower sum for the m-th moment.

    Sums ``mass(address) * (address / N**k)**m`` over all ``N**k`` addresses,
    with the mass the integer digit product of the weight numerators
    (:func:`measure._digit_products`).  Always a lower bound for ``I_m``.
    """
    if m < 0:
        raise OutOfRange(f"m must be nonnegative, got {m}")
    size = _check_depth(w.n_branches, k, cap)
    masses, denominator = _digit_products(w, k)
    total = sum(p * n**m for n, p in enumerate(masses) if p)
    return Fraction(total, denominator * size**m)


def approx_error_depth(n_base: int, m: int, eps: RationalLike | float) -> int:
    """Smallest depth k guaranteeing ``I_m - left_endpoint_estimate < eps``.

    Uses the exact rational criterion ``(1 + N**-k)**m - 1 <= eps``, the
    quantity the error chain bounds by ``exp(m / N**k) - 1``; it is slightly
    tighter than the transcendental form and needs no float evaluation.
    """
    if n_base < 2:
        raise OutOfRange(f"base must be at least 2, got {n_base}")
    if m < 1:
        raise OutOfRange(f"m must be a positive integer, got {m}")
    tol = Fraction(eps)
    if tol <= 0:
        raise BadTolerance(f"eps must be positive, got {eps}")
    k = 1
    while (1 + Fraction(1, n_base**k)) ** m - 1 > tol:
        k += 1
    return k


def palindromic_odd_moment(
    prefix: MomentSequence | Sequence[Fraction], m: int
) -> Fraction:
    """Odd moment of a symmetric measure from the lower ones.

    For palindromic weights and odd m, the MGF identity ``G(s) = e**s G(-s)``
    collapses to ``I_m = (1/2) * sum_{i<m} (-1)**i C(m,i) I_i``.  The caller
    is responsible for palindromicity of the measure behind ``prefix``.
    """
    if m % 2 == 0:
        raise NotOdd(f"m must be odd, got {m}")
    values = prefix.values if isinstance(prefix, MomentSequence) else prefix
    if len(values) < m:
        raise ValueError(f"need moments 0..{m - 1}, got only {len(values)}")
    acc = Fraction(0)
    binom = 1
    for i in range(m):
        term = binom * as_fraction(values[i])
        acc += term if i % 2 == 0 else -term
        binom = binom * (m - i) // (i + 1)
    return acc / 2


def shifted_moments(w: WeightVector, m_max: int) -> MomentSequence:
    """Exact moments ``J_0..J_{m_max}`` of the measure moved to ``[-1/2, 1/2]``.

    The same recurrence as :func:`exact_moments` with branch offsets
    ``(2n - N + 1) / 2``.
    """
    n_base = w.n_branches
    offsets = range(1 - n_base, n_base, 2)
    values = _self_similar_moments(w, offsets, m_max, q=2)
    return MomentSequence(weights=w, kind="shifted", values=values)
