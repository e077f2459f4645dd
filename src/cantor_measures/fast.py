"""Certified fast approximation of moments via truncated MGF products.

The moment generating function of a base-N weighted Cantor measure is the
infinite product over scales ``r = 1, 2, ...`` of the factors
``sum_n alpha_n * exp(n*s / N**r)``.  Truncating the product at depth k gives
a power series whose m-th coefficient ``I_{m;k} / m!`` converges to
``I_m / m!`` from below, with the Cauchy-integral error bound

    |I_m - I_{m;k}| <= e * m * sqrt(m - 1) / N**k        (m >= 2).

The pipeline runs power-of-two depths only: the depth-2k product is the
depth-k product times itself at ``s / N**k``, so depth k costs exactly
log2(k) truncated series multiplications.  The certified path takes them to
degree ``min(m, 170)`` only, the last index it returns a value for: the
products cost O(min(m, 170)**2 log k) and the tail of 0 values and inf
bounds O(m).
The centred measure (shifted to ``[-1/2, 1/2]``) runs the same pipeline with
branch offsets ``n - (N-1)/2``.

A truncated series is a float64 array of its ``degree + 1`` coefficients,
in exponential-generating-function form (coefficient of ``s**n`` is
``moment / n!``), which keeps every stored value at most e.  Moment n is
coefficient n times ``n!``.  Each bound is the truncation term plus a
rounding term plus an underflow term (:func:`_certified`).  The underflow
term grows like ``n!``: it stays below eps up to n of about 165, and from
n = 171, where ``n!`` leaves the double range, values are 0 and bounds inf.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BadTolerance, FloatOverflow, NotPalindromic, OutOfDomain, OutOfRange
from .measure import WeightVector

#: Smallest tolerance the double-precision pipeline certifies.
MIN_TOLERANCE = 1e-12

#: Highest moment index the pipeline returns a value for: 171! is past the
#: double range.
MAX_FINITE_INDEX = 170


def _exp_terms(x: float, degree: int) -> np.ndarray:
    """Coefficients ``x**n / n!`` for ``n = 0..degree`` (truncated exp)."""
    out = np.empty(degree + 1)
    out[0] = 1.0
    for n in range(1, degree + 1):
        out[n] = out[n - 1] * x / n
    return out


def truncated_factor(
    w: WeightVector, degree: int, *, shifted: bool = False
) -> np.ndarray:
    """Degree-m truncation of ``sum_n alpha_n * exp(c_n * s / N)``.

    ``coeffs[j] = sum_n alpha_n * (c_n / N)**j / j!``, the first (scale-1)
    factor of the MGF's infinite product, with offsets ``c_n = n``, or with
    ``c_n = n - (N-1)/2`` when ``shifted`` (measure on ``[-1/2, 1/2]``).
    """
    if degree < 0:
        raise OutOfRange(f"degree must be nonnegative, got {degree}")
    n_base = w.n_branches
    center = (n_base - 1) / 2 if shifted else 0
    coeffs = np.zeros(degree + 1)
    for n, a in enumerate(w.weights):
        if a == 0:
            continue
        coeffs += float(a) * _exp_terms((n - center) / n_base, degree)
    # The constant term is sum(alpha) = 1 exactly; don't let the float
    # conversions of the individual weights smear it.
    coeffs[0] = 1.0
    return coeffs


def series_mul_trunc(a: np.ndarray, b: np.ndarray, degree: int) -> np.ndarray:
    """Degree-m truncation of the product of two truncated series.

    Missing coefficients are treated as zero.  The direct sum of products
    keeps the relative accuracy of every nonnegative coefficient, however
    small, which an FFT product (normwise error) would not.
    """
    if degree < 0:
        raise OutOfRange(f"degree must be nonnegative, got {degree}")
    out = np.convolve(a, b)[: degree + 1]
    if len(out) < degree + 1:
        out = np.concatenate([out, np.zeros(degree + 1 - len(out))])
    return out


def _check_tolerance(eps: float) -> float:
    eps = float(eps)
    if not 0 < eps < math.inf:
        raise BadTolerance(f"eps must be positive and finite, got {eps}")
    if eps < MIN_TOLERANCE:
        raise BadTolerance(
            f"eps = {eps} below double-precision support ({MIN_TOLERANCE}); "
            "the certified bound would no longer dominate representation error"
        )
    return eps


def _log_truncation(n_base: int, depth: int, n, shifted: bool):
    """Log of the depth-k truncation bound at index ``n >= 2`` (scalar or array).

    ``e * n * sqrt(n-1) / N**k``, times ``(3/2)**n`` (the raw bound pushed
    through the binomial transform) on the shifted path; log space keeps
    both from overflowing.
    """
    log_b = 1.0 + np.log(n) + 0.5 * np.log(n - 1.0) - depth * math.log(n_base)
    return log_b + n * math.log(1.5) if shifted else log_b


def _rounding(n_base: int, depth: int, n):
    """Relative rounding bound at index n (scalar or array) at depth k.

    ``rho / (1 - 2 rho)`` for the ``rho(n)`` unit roundoffs counted in
    :func:`_certified`: gamma_rho relative to the computed, not the true,
    value.
    """
    mults = depth.bit_length() - 1
    rho = ((4 + 3 * mults) * n + depth * (n_base + 5) - 4) * 2.0**-53  # times u
    return rho / (1.0 - 2.0 * rho)


def depth_for_eps(n_base: int, m: int, eps: float, shifted: bool = False) -> int:
    """Smallest power-of-two depth k whose truncation and rounding terms up
    to index ``m >= 2`` sum to at most eps; the certified driver runs this k.

    The bound at index ``2 <= n <= m`` is at most the truncation term plus
    the rounding term (:func:`_rounding`) at index m, both growing with n, on
    a value of at most 1 (raw moments) or 1/4 (``|J_n| <= 2**-n``).  Raises
    :class:`BadTolerance` at the first depth where that rounding term alone
    reaches eps.  The underflow term of :func:`_certified` is left out, so
    the reported bounds stay within eps only up to about n = 165; they can
    exceed it at n = 166..170, and they are inf from n = 171.
    """
    if m < 2:
        raise OutOfRange(f"the error bound needs m >= 2, got {m}")
    eps = _check_tolerance(eps)
    depth = 1
    while True:
        slack = eps - _rounding(n_base, depth, m) * (0.25 if shifted else 1.0)
        if slack <= 0:  # the rounding term only grows with the depth
            raise BadTolerance(
                f"eps = {eps} is below the rounding error at index {m} (depth {depth})"
            )
        if _log_truncation(n_base, depth, m, shifted) <= math.log(slack):
            return depth
        depth *= 2


def partial_product_series(
    w: WeightVector, degree: int, depth: int, shifted: bool = False
) -> np.ndarray:
    """Degree-m truncation of the depth-k partial product of the MGF.

    The depth k must be a power of two.  Each of the ``log2(k)`` truncated
    multiplications squares the product of the first ``2**j`` factors with
    an argument rescale: the next ``2**j`` factors are that product at
    ``s / N**(2**j)``.  Coefficient n reads only inputs 0..n, so the result
    is, bit for bit, the prefix of the result at any higher degree;
    :func:`_certified` asks for degree ``min(m, 170)``.
    """
    if depth < 1 or depth & (depth - 1):
        raise OutOfRange(f"depth must be a power of two, got {depth}")
    powers = np.arange(degree + 1)
    result = truncated_factor(w, degree, shifted=shifted)
    for j in range(depth.bit_length() - 1):
        sigma = float(w.n_branches) ** -(1 << j)
        result = series_mul_trunc(result, result * sigma**powers, degree)
    return result


def _certified(
    w: WeightVector, m_max: int, depth: int, shifted: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Depth-k moments and bounds: truncation, rounding and underflow error.

    ``rho(n)`` counts the unit roundoffs u from the weights to moment n, per
    coefficient j <= n and with libm ``pow`` within 1 ulp (2 roundoffs):
    factor ``3j + N + 1`` (offset 1, ``x**j/j!`` 3j, weight and product 2,
    sum over N branches N - 1); rescale by ``sigma**j`` ``2j + 3``; product
    n + 1 plus the counts of both inputs.  Over the ``L = log2 k``
    multiplications of depth k that is
    ``(3 + 3L) n + k (N + 5) - 4``, and the factorial adds n.  The error is
    then ``gamma_rho = rho u / (1 - rho u)`` relative to the depth-k moment
    on the raw path (nonnegative terms), or to ``2**-n`` on the centred path
    (every ``|offset| / N <= 1/2`` bounds the absolute-value series).

    That count assumes no product underflows.  A product or quotient that
    does is off by at most ``eta = 2**-1075`` more (half the smallest
    subnormal), ``pow`` by ``2 eta``; sums of doubles are exact there.  In
    units of eta, the absolute error of a coefficient at index ``j <= n``:
    ``x**j/j!`` by ``t_j = t_(j-1) * x / j`` with ``|x| < 1`` is within
    ``(E + 1) / j + 1 <= 4``, and the N weight products make a factor
    within ``N + 5``.  The rescale by ``sigma**j <= 1`` adds 3 (pow and
    product).  A product whose inputs are within A and B is within
    ``3A + 3B + n + 2``: the absolute-value series of every input sums to at
    most e at s = 1 (below 3 with rounding), its n + 1 products add eta each
    and the cross terms of two errors less than one.  Over L
    multiplications with one rescaled input each, ``E <- 6E + n + 11`` from
    ``N + 5`` gives at most ``6**L (n + 5N + 36) / 5``.  Moment n multiplies
    by ``n!`` and adds one eta; the count ``6**L (n + N + 20)`` exceeds that
    sum by at least one more, which covers the rounding of the term itself.
    The term is negligible below n of about 160 and reaches eps near
    n = 166..170; from n = 171 ``n!`` overflows, so values there are 0 and
    bounds inf.  The product is therefore taken to degree ``min(m, 170)``
    only (:data:`MAX_FINITE_INDEX`), and indices above it are filled in.
    """
    # Coefficient n of a truncated product reads only inputs 0..n, so the
    # product to degree ``top`` is the prefix of the degree-m one, bit for bit.
    top = min(m_max, MAX_FINITE_INDEX)
    n = np.arange(top + 1, dtype=np.float64)
    factorial = np.cumprod(np.maximum(n, 1.0))
    moments = partial_product_series(w, top, depth, shifted) * factorial
    scale = 0.5**n if shifted else np.abs(moments)
    bounds = _rounding(w.n_branches, depth, n) * scale
    bounds[2:] += np.exp(_log_truncation(w.n_branches, depth, n[2:], shifted))
    count = 6.0 ** (depth.bit_length() - 1) * (n + w.n_branches + 20)
    bounds += count * (factorial * 2.0**-1074) * 0.5
    # The constant coefficient is a product of exact ones.
    bounds[0] = 0.0
    tail = m_max - top
    return (np.concatenate([moments, np.zeros(tail)]),
            np.concatenate([bounds, np.full(tail, math.inf)]))


@dataclass(frozen=True, eq=False)
class FastResult:
    """Approximate moments with per-index certified error bounds.

    ``moments[n]`` approximates the n-th moment at the partial-product depth
    ``depth_used``; ``certified_bound[n]`` bounds ``|true - computed|``,
    truncation and rounding included (index 0 is exact, bound 0).
    """

    moments: np.ndarray
    depth_used: int
    certified_bound: np.ndarray

    def __post_init__(self) -> None:
        for name in ("moments", "certified_bound"):
            arr = np.array(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def to_csv(self) -> str:
        # Python floats from tolist() format as format_float does, without
        # a numpy scalar conversion per value.
        pairs = zip(self.moments.tolist(), self.certified_bound.tolist())
        lines = ["m,value,bound"]
        lines += [f"{m},{v:.17g},{b:.17g}" for m, (v, b) in enumerate(pairs)]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {
                "depth": self.depth_used,
                "moments": self.moments.tolist(),
                "bounds": self.certified_bound.tolist(),
            }
        )


def moments_at_depth(w: WeightVector, m_max: int, depth: int) -> FastResult:
    """Moments of the depth-k partial product (k a power of two), with bounds.

    Unlike :func:`fast_moments` it keeps indices 0 and 1 as computed, which
    makes it the probe for convergence studies; index 1 is
    ``I_1 * (1 - N**-k)``, so its truncation bound is ``N**-k``.
    """
    moments, bounds = _certified(w, m_max, depth, shifted=False)
    if m_max >= 1:
        bounds[1] += float(w.n_branches) ** -depth
    return FastResult(moments=moments, depth_used=depth, certified_bound=bounds)


def _certified_to_eps(w: WeightVector, m_max: int, eps: float, shifted: bool) -> FastResult:
    """Certified moments to eps: depth, product, moments and bounds, low indices."""
    if m_max < 0:
        raise OutOfRange(f"m_max must be nonnegative, got {m_max}")
    eps = _check_tolerance(eps)
    depth = depth_for_eps(w.n_branches, m_max, eps, shifted) if m_max >= 2 else 1
    moments, bounds = _certified(w, m_max, depth, shifted)
    if shifted:
        moments[1::2] = bounds[1::2] = 0.0
    elif m_max >= 1:
        # I_1 = sum_n alpha_n * n / (N - 1) from the one-level recurrence.
        exact = sum(a * n for n, a in enumerate(w.weights)) / Fraction(w.n_branches - 1)
        moments[1] = float(exact)
        error = abs(Fraction(moments[1]) - exact)
        bounds[1] = float(error)
        if Fraction(bounds[1]) < error:
            bounds[1] = math.nextafter(bounds[1], math.inf)
    return FastResult(moments=moments, depth_used=depth, certified_bound=bounds)


def fast_moments(w: WeightVector, m_max: int, eps: float) -> FastResult:
    """First ``m_max`` moments within certified uniform error ``eps``.

    Picks the smallest power-of-two depth whose truncation and rounding terms
    together meet ``eps`` (:func:`depth_for_eps`) and runs the doubling
    product, performing exactly ``log2(depth)`` truncated multiplications.
    Index 0 is exact; index 1 is the double nearest the exact ``I_1`` and
    its bound is that rounding error.  Bounds stay within eps only up to
    about n = 165, where the underflow of ``I_n / n!`` starts to count; from
    n = 171 values are 0 and bounds inf.
    """
    return _certified_to_eps(w, m_max, eps, shifted=False)


def shifted_fast_moments(w: WeightVector, m_max: int, eps: float) -> FastResult:
    """Certified shifted moments of a palindromic weight vector.

    :func:`fast_moments` on the centred factors, with the truncation term
    inflated by ``(3/2)**n`` (:func:`_log_truncation`).  Odd indices vanish
    by symmetry and are set to 0 with bound 0.
    """
    if not w.is_palindromic:
        raise NotPalindromic(f"shifted moments need palindromic weights, got {w}")
    return _certified_to_eps(w, m_max, eps, shifted=True)


def mgf_eval(w: WeightVector, s: float, depth: int) -> float:
    """Numeric value of the depth-k partial product of the MGF at ``s``.

    Nondecreasing in ``depth`` for ``s > 0`` (every factor is at least 1
    there) and converges to the moment generating function as depth grows.
    Every exponent of factor r is within ``|s| / N**(r-1)`` of 0; the loop
    stops once that is below ``2**-60``, where every remaining ``exp`` term
    is exactly 1.0 and a factor could only multiply the value by the float
    sum of the weights (0.9999999999999999 for ten weights 1/10), so the
    value stops changing with depth and any depth costs at most a few
    thousand factors.  Raises :class:`OutOfDomain` for a non-finite ``s``,
    :class:`OutOfRange` for ``depth < 1`` and :class:`FloatOverflow` when the
    value exceeds the largest double, as for ``s = 1e6`` on ternary.
    """
    if not math.isfinite(s):
        raise OutOfDomain(f"the MGF argument must be finite, got s = {s}")
    if depth < 1:
        raise OutOfRange(f"depth must be a positive integer, got {depth}")
    n_base = w.n_branches
    weights = [float(a) for a in w.weights]
    value = 1.0
    for r in range(1, depth + 1):
        power = n_base**r
        if abs(s) < power >> (60 + n_base.bit_length()):
            break
        try:
            scale = s / power
        except OverflowError:  # power is past the double range, s / power is not
            scale = float(Fraction(s) / power)
        try:
            value *= sum(a * math.exp(n * scale) for n, a in enumerate(weights) if a)
        except OverflowError:
            value = math.inf
            break
    if value == math.inf:
        raise FloatOverflow(f"MGF partial product at s = {s} exceeds the double range")
    return value
