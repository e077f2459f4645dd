"""Reference values computed without the package under test.

Everything here is written from the definitions of a weighted Cantor measure
(mass ``alpha_n`` on the branch ``x -> (x + n) / N``), not from the package's
code, so that the benchmark can judge the package's outputs:

* ``exact_raw`` / ``exact_centred``: exact rational one-level recurrences,
  used for low indices.
* ``float_raw`` / ``float_centred``: the same recurrences in doubles, written
  so that every term is nonnegative (binomial-pmf weights built by the
  Bernstein recursion).  A sum of nonnegative terms has a relative error of at
  most the largest relative error of its terms plus its own roundings, which
  gives the a priori bound :func:`float_rel_err`.
* ``cdf_at``: the CDF at an N-adic grid point by digit expansion.
* ``chebyshev_basis``: monic orthogonal polynomials from exact moments by the
  classical Chebyshev algorithm (a different algorithm from the package's
  Gram-Schmidt and symmetric recurrence).
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

UNIT_ROUNDOFF = 2.0**-53


def parse_weights(text: str) -> tuple[Fraction, ...]:
    return tuple(Fraction(p) for p in text.split(","))


def exact_raw(weights: tuple[Fraction, ...], m_max: int) -> list[Fraction]:
    """``I_0..I_m`` from ``(N**m - 1) I_m = sum_n a_n sum_{i<m} C(m,i) n**(m-i) I_i``."""
    n_base = len(weights)
    values = [Fraction(1)]
    for m in range(1, m_max + 1):
        acc = Fraction(0)
        for i in range(m):
            inner = sum(a * n ** (m - i) for n, a in enumerate(weights))
            acc += math.comb(m, i) * inner * values[i]
        values.append(acc / (n_base**m - 1))
    return values


def exact_centred(weights: tuple[Fraction, ...], m_max: int) -> list[Fraction]:
    """``J_0..J_m`` of the measure moved to ``[-1/2, 1/2]``.

    With offsets ``c_n = n - (N-1)/2`` the centred variable satisfies
    ``Z = (c_n + Z') / N``, so ``(N**m - 1) J_m = sum_n a_n sum_{i<m} C(m,i)
    c_n**(m-i) J_i``.
    """
    n_base = len(weights)
    offsets = [Fraction(2 * n - n_base + 1, 2) for n in range(n_base)]
    values = [Fraction(1)]
    for m in range(1, m_max + 1):
        acc = Fraction(0)
        for i in range(m):
            inner = sum(a * c ** (m - i) for c, a in zip(offsets, weights))
            acc += math.comb(m, i) * inner * values[i]
        values.append(acc / (n_base**m - 1))
    return values


def float_rel_err(m: np.ndarray | int) -> np.ndarray | float:
    """A priori relative error bound of :func:`float_raw` / :func:`float_centred`.

    Step m adds at most ``4m + N + 5 <= 4m + 10`` roundings on top of the
    largest relative error of the lower moments (Bernstein weights ``3m``,
    dot product ``m``, branch sum and division a few more), so the error after
    m steps is at most ``sum_{j<=m} (4j + 10) u = (2m**2 + 12m) u``.  A factor
    two covers second-order terms.
    """
    m = np.asarray(m, dtype=np.float64)
    return 2.0 * (2.0 * m * m + 12.0 * m + 12.0) * UNIT_ROUNDOFF


def _nonnegative_recurrence(
    weights: tuple[Fraction, ...], offsets: list[float], m_max: int, even_only: bool
) -> np.ndarray:
    """Solve ``M_m (1 - N**-m) = sum_n a_n sum_{i<m} b_{n,m}(i) M_i``.

    ``b_{n,m}(i) = C(m,i) p_n**(m-i) q**i`` with ``p_n = |c_n| / N`` and
    ``q = 1 / N`` is carried by the Bernstein recursion, all terms >= 0.
    With ``even_only`` (centred moments of a palindromic vector) odd moments
    are zero and only even ``m - i`` contributes, where ``|c_n|`` may replace
    ``c_n``.
    """
    n_base = len(weights)
    q = 1.0 / n_base
    branches = [(float(a), abs(c) / n_base) for a, c in zip(weights, offsets) if a]
    bern = [np.zeros(m_max + 1) for _ in branches]
    for b in bern:
        b[0] = 1.0
    out = np.zeros(m_max + 1)
    out[0] = 1.0
    for m in range(1, m_max + 1):
        total = 0.0
        for (a, p), b in zip(branches, bern):
            # b[i] <- p*b[i] + q*b[i-1], in place from the top down.
            b[1 : m + 1] = p * b[1 : m + 1] + q * b[0:m]
            b[0] = p * b[0]
            if even_only and m % 2:
                continue
            total += a * float(np.dot(b[:m], out[:m]))
        out[m] = 0.0 if (even_only and m % 2) else total / (1.0 - q**m)
    return out


def float_raw(weights: tuple[Fraction, ...], m_max: int) -> np.ndarray:
    """``I_0..I_m`` in doubles, relative error at most :func:`float_rel_err`."""
    return _nonnegative_recurrence(weights, list(range(len(weights))), m_max, False)


def float_centred(weights: tuple[Fraction, ...], m_max: int) -> np.ndarray:
    """``J_0..J_m`` of a palindromic vector in doubles (odd ones exactly 0)."""
    n_base = len(weights)
    offsets = [n - (n_base - 1) / 2 for n in range(n_base)]
    return _nonnegative_recurrence(weights, offsets, m_max, True)


def cdf_at(weights: tuple[Fraction, ...], j: int, k: int) -> Fraction:
    """``F(j / N**k)`` by digit expansion: sum over digits of the mass to the left."""
    n_base = len(weights)
    if j >= n_base**k:
        return Fraction(1)
    digits = []
    for _ in range(k):
        j, d = divmod(j, n_base)
        digits.append(d)
    value = Fraction(0)
    prefix = Fraction(1)
    for d in reversed(digits):
        value += prefix * sum(weights[:d], Fraction(0))
        prefix *= weights[d]
    return value


def chebyshev_basis(
    moments: list[Fraction], degree: int
) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Monic orthogonal polynomials ``p_0..p_d`` and their squared norms.

    Classical Chebyshev algorithm: ``sigma_k(l) = <p_k, x**l>`` gives the
    recurrence coefficients ``a_k``, ``b_k`` of
    ``p_{k+1} = (x - a_k) p_k - b_k p_{k-1}``.
    """
    top = 2 * degree
    prev = [Fraction(0)] * (top + 1)
    cur = list(moments[: top + 1])
    a = [cur[1] / cur[0]]
    b = [cur[0]]
    norms = [cur[0]]
    for k in range(1, degree + 1):
        nxt = [Fraction(0)] * (top + 1)
        for l in range(k, top - k + 1):
            nxt[l] = cur[l + 1] - a[k - 1] * cur[l] - b[k - 1] * prev[l]
        a.append(nxt[k + 1] / nxt[k] - cur[k] / cur[k - 1] if k < degree else Fraction(0))
        b.append(nxt[k] / cur[k - 1])
        norms.append(nxt[k])
        prev, cur = cur, nxt
    polys = [[Fraction(1)]]
    if degree >= 1:
        polys.append([-a[0], Fraction(1)])
    for k in range(1, degree):
        shifted = [Fraction(0)] + polys[k]
        lower = polys[k - 1] + [Fraction(0), Fraction(0)]
        polys.append(
            [shifted[i] - (a[k] * polys[k][i] if i <= k else 0) - b[k] * lower[i] for i in range(k + 2)]
        )
    return polys, norms
