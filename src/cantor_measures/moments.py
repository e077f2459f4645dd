"""Exact rational moments of weighted Cantor measures.

The m-th moment ``I_m`` is the integral of ``x**m`` against the measure.
Splitting the integral over the N branches gives a closed recurrence

    I_m = (N**m - 1)**-1 * sum_n alpha_n * sum_{i<m} C(m,i) n**(m-i) I_i

with ``I_0 = 1``, evaluated here in exact integer arithmetic.  The branch
sum collapses into integer power sums of the offsets, computed once in
O(N * m) products; each step is then a Horner sum over the step factors
``A * (N**j - 1)`` (A the lcm of the weight denominators), O(m**2) big
products in all, on numerators that are never rescaled; and each value is
reduced once, by one gcd per index.  The left-endpoint lower sum over the
depth-k grid serves as an independent brute-force check: it never exceeds
``I_m`` and converges to it as k grows, with gap strictly below
``(1 + N**-k)**m - 1``.

Shifted moments ``J_m`` (measure translated to ``[-1/2, 1/2]``) satisfy
the same recurrence with the branch offsets ``n`` replaced by
``n - (N-1)/2``; both are solved by one integer kernel.  ``|J_m| <= 2**-m``
for every weight vector.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import BadTolerance, InsufficientMoments, NotOdd, OutOfRange
from .measure import WeightVector, _digit_products, _integer_weights
from .rational import RationalLike, as_fraction, format_int, format_rational


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


def _pascal_row(previous: list[int]) -> list[int]:
    """Next row of Pascal's triangle from the previous one."""
    return [1] + [previous[i - 1] + previous[i] for i in range(1, len(previous))] + [1]


def _self_similar_moments(
    w: WeightVector, offsets: Sequence[int], m_max: int, q: int = 1
) -> tuple[Fraction, ...]:
    """Moments ``E[Y**m]`` of ``Y = (c_n / q + Y') / N`` (branch n w.p. ``alpha_n``).

    With A the lcm of the weight denominators, ``alpha_n = p_n / A``, the
    integer power sums ``P_j = sum_n p_n * c_n**j`` and the step factors
    ``s_j = A * (N**j - 1)``, the moments ``X_m = E[(qY)**m]`` satisfy
    ``s_m X_m = sum_{i<m} C(m,i) P_{m-i} X_i``.  The loop keeps the integer
    numerators ``u_m = X_m * s_1 * ... * s_m``, so

        u_m = sum_{i<m} C(m,i) P_{m-i} u_i * s_{i+1} * ... * s_{m-1},

    evaluated as a Horner sum over the step factors: one big-integer product
    per i, and no stored ``u_i`` is ever rescaled.  The power sums cost
    O(N * m_max) products, the steps O(m_max**2) big products, and each
    value is reduced once at the end by one ``Fraction`` gcd.
    """
    if m_max < 0:
        raise OutOfRange(f"m_max must be nonnegative, got {m_max}")
    n_base = w.n_branches
    numerators, common = _integer_weights(w)
    branches = [(p_n, c) for p_n, c in zip(numerators, offsets) if p_n and c]
    power_sums = [0]  # power_sums[j] == P_j for j >= 1
    terms = [p_n for p_n, _ in branches]
    for _ in range(m_max):
        terms = [t * c for t, (_, c) in zip(terms, branches)]
        power_sums.append(sum(terms))
    steps = [common * (n_base**j - 1) for j in range(m_max + 1)]
    scaled = [1]  # scaled[i] == u_i
    row = [1]
    for m in range(1, m_max + 1):
        row = _pascal_row(row)
        acc = power_sums[m]
        for i in range(1, m):
            acc *= steps[i]
            coefficient = row[i] * power_sums[m - i]
            if coefficient:  # odd P_j vanish for centred palindromic offsets
                acc += coefficient * scaled[i]
        scaled.append(acc)
    values = [Fraction(1)]
    denom = 1
    for m in range(1, m_max + 1):
        denom *= steps[m] * q
        values.append(Fraction(scaled[m], denom))
    return tuple(values)


def exact_moments(w: WeightVector, m_max: int) -> MomentSequence:
    """Exact raw moments ``I_0..I_{m_max}``: branch offsets ``0..N-1``."""
    values = _self_similar_moments(w, range(w.n_branches), m_max)
    return MomentSequence(weights=w, kind="raw", values=values)


def left_endpoint_estimate(w: WeightVector, k: int, m: int) -> Fraction:
    """Depth-k left-endpoint lower sum for the m-th moment.

    Sums ``mass(address) * (address / N**k)**m`` over all ``N**k`` addresses,
    with the mass the integer digit product of the weight numerators
    (:func:`measure._digit_products`).  Always a lower bound for ``I_m``.
    """
    if m < 0:
        raise OutOfRange(f"m must be nonnegative, got {m}")
    masses, denominator = _digit_products(w, k)
    total = sum(p * n**m for n, p in enumerate(masses) if p)
    return Fraction(total, denominator * len(masses)**m)


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
    try:
        tol = Fraction(eps)
    except (OverflowError, ValueError):  # inf, nan or malformed text
        raise BadTolerance(f"eps must be positive and finite, got {eps}") from None
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
    if m < 1:
        raise OutOfRange(f"m must be a positive odd integer, got {m}")
    if m % 2 == 0:
        raise NotOdd(f"m must be odd, got {m}")
    if len(prefix) < m:
        raise InsufficientMoments(f"need moments 0..{m - 1}, got only {len(prefix)}")
    acc = Fraction(0)
    binom = 1
    for i in range(m):
        term = binom * as_fraction(prefix[i])
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
