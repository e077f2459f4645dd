"""Certified fast approximation of moments via truncated MGF products.

The moment generating function of a base-N weighted Cantor measure is the
infinite product over scales ``r = 1, 2, ...`` of the factors
``sum_n alpha_n * exp(n*s / N**r)``.  Truncating the product at depth k gives
a power series whose m-th coefficient ``I_{m;k} / m!`` converges to
``I_m / m!`` from below, with the Cauchy-integral error bound

    |I_m - I_{m;k}| <= e * m * sqrt(m - 1) / N**k        (m >= 2).

Doubling the depth squares the partial product up to an argument rescaling,
so depth k (rounded up to a power of two) costs exactly log2(k) truncated
series multiplications of degree m.

Series coefficients are stored in exponential-generating-function form
(coefficient of ``s**n`` is ``moment / n!``), which keeps every stored value
at most e.  Moments are reconstructed by an incremental factorial carried in
(mantissa, exponent) split form, so no intermediate overflows even for
m > 170 where ``m!`` leaves double range; results degrade only where the
stored coefficient itself falls below the smallest subnormal (n above ~170),
which is outside the certified regime exercised by the error bound tests.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

import numpy as np

from .errors import BadTolerance, FloatOverflow, NotPalindromic, OutOfRange
from .measure import WeightVector
from .rational import format_float

#: Result degree at or above which the auto method selects FFT convolution.
FFT_CROSSOVER_DEFAULT = 64

#: Smallest tolerance the double-precision pipeline certifies.
MIN_TOLERANCE = 1e-12


@dataclass(frozen=True, eq=False)
class TruncatedSeries:
    """Degree-m truncation of a power series in EGF coefficient form.

    ``coeffs[n]`` is the coefficient of ``s**n``; for a moment generating
    function this is ``moment_n / n!``.
    """

    degree: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeffs, dtype=np.float64)
        if arr.ndim != 1 or len(arr) != self.degree + 1:
            raise ValueError(
                f"expected {self.degree + 1} coefficients, got shape {arr.shape}"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.degree == other.degree and np.array_equal(self.coeffs, other.coeffs)

    def __len__(self) -> int:
        return self.degree + 1


def series_from_coeffs(coeffs: Iterable[float]) -> TruncatedSeries:
    """Build a :class:`TruncatedSeries` from raw coefficient values."""
    arr = np.asarray(list(coeffs), dtype=np.float64)
    return TruncatedSeries(degree=len(arr) - 1, coeffs=arr)


def _exp_terms(x: float, degree: int) -> np.ndarray:
    """Coefficients ``x**n / n!`` for ``n = 0..degree`` (truncated exp)."""
    out = np.empty(degree + 1)
    out[0] = 1.0
    for n in range(1, degree + 1):
        out[n] = out[n - 1] * x / n
    return out


def truncated_factor(w: WeightVector, degree: int, scale_power: int = 1) -> TruncatedSeries:
    """Degree-m truncation of ``sum_n alpha_n * exp(n*s / N**r)``.

    ``coeffs[j] = sum_n alpha_n * (n / N**r)**j / j!``; this is the scale-r
    factor of the moment generating function's infinite product.
    """
    if degree < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
    if scale_power < 1:
        raise ValueError(f"scale power must be at least 1, got {scale_power}")
    n_base = w.n_branches
    coeffs = np.zeros(degree + 1)
    for n, a in enumerate(w.weights):
        if a == 0:
            continue
        coeffs += float(a) * _exp_terms(n / n_base**scale_power, degree)
    # The constant term is sum(alpha) = 1 exactly; don't let the float
    # conversions of the individual weights smear it.
    coeffs[0] = 1.0
    return TruncatedSeries(degree=degree, coeffs=coeffs)


def shifted_truncated_factor(
    w: WeightVector, degree: int, scale_power: int = 1
) -> TruncatedSeries:
    """Scale-r factor of the centered MGF (measure shifted to ``[-1/2, 1/2]``).

    Equals the plain factor premultiplied by ``exp(-(N-1)*s / (2*N**r))``,
    i.e. ``sum_n alpha_n * exp((n - (N-1)/2) * s / N**r)``; for palindromic
    weights this is a weighted average of hyperbolic cosines.
    """
    if degree < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
    if scale_power < 1:
        raise ValueError(f"scale power must be at least 1, got {scale_power}")
    n_base = w.n_branches
    coeffs = np.zeros(degree + 1)
    for n, a in enumerate(w.weights):
        if a == 0:
            continue
        center = (2 * n - n_base + 1) / (2.0 * n_base**scale_power)
        coeffs += float(a) * _exp_terms(center, degree)
    coeffs[0] = 1.0
    return TruncatedSeries(degree=degree, coeffs=coeffs)


def _mul_schoolbook(a: np.ndarray, b: np.ndarray, degree: int) -> np.ndarray:
    return np.convolve(a, b)[: degree + 1]


def _mul_fft(a: np.ndarray, b: np.ndarray, degree: int) -> np.ndarray:
    full = len(a) + len(b) - 1
    size = 1 << (full - 1).bit_length()
    fa = np.fft.rfft(a, size)
    fb = np.fft.rfft(b, size)
    return np.fft.irfft(fa * fb, size)[: min(full, degree + 1)]


def series_mul_trunc(
    a: TruncatedSeries,
    b: TruncatedSeries,
    degree: int,
    method: str = "auto",
    fft_threshold: int = FFT_CROSSOVER_DEFAULT,
) -> TruncatedSeries:
    """Degree-m truncation of the product of two truncated series.

    Missing coefficients are treated as zero.  ``method`` picks the
    convolution: ``"auto"`` uses FFT at or above ``fft_threshold`` and
    schoolbook below, ``"fft"`` and ``"schoolbook"`` force one path.

    FFT convolution carries per-coefficient error proportional to the global
    norm of the inputs; on series whose coefficients span many orders of
    magnitude (such as EGF coefficient arrays) that destroys the relative
    accuracy of the small coefficients, so the certified moment pipeline
    forces the schoolbook path, which sums nonnegative terms and keeps
    per-coefficient relative error near machine precision.
    """
    if degree < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
    if method == "auto":
        method = "fft" if degree >= fft_threshold else "schoolbook"
    if method == "fft":
        out = _mul_fft(a.coeffs, b.coeffs, degree)
    elif method == "schoolbook":
        out = _mul_schoolbook(a.coeffs, b.coeffs, degree)
    else:
        raise ValueError(f"unknown method {method!r}")
    if len(out) < degree + 1:
        out = np.concatenate([out, np.zeros(degree + 1 - len(out))])
    return TruncatedSeries(degree=degree, coeffs=out)


def rescale_argument(a: TruncatedSeries, factor: float) -> TruncatedSeries:
    """Series of ``s -> F(factor * s)``: multiply ``coeffs[n]`` by ``factor**n``."""
    scale = float(factor) ** np.arange(a.degree + 1)
    return TruncatedSeries(degree=a.degree, coeffs=a.coeffs * scale)


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


def depth_for_eps(n_base: int, m: int, eps: float) -> int:
    """Smallest depth k with ``e * m * sqrt(m-1) / N**k <= eps`` (m >= 2)."""
    if m < 2:
        raise ValueError(f"the error bound needs m >= 2, got {m}")
    eps = _check_tolerance(eps)
    lead = math.e * m * math.sqrt(m - 1)
    k = 1
    while lead / n_base**k > eps:
        k += 1
    return k


def _shifted_depth_for_eps(n_base: int, m: int, eps: float) -> int:
    """Smallest k with ``(3/2)**m * e * m * sqrt(m-1) / N**k <= eps``.

    Solved in log space since ``(3/2)**m`` overflows a double for large m.
    """
    if m < 2:
        raise ValueError(f"the error bound needs m >= 2, got {m}")
    eps = _check_tolerance(eps)
    log_lead = m * math.log(1.5) + 1.0 + math.log(m) + 0.5 * math.log(m - 1)
    log_n = math.log(n_base)
    k = max(1, math.ceil((log_lead - math.log(eps)) / log_n))
    while log_lead - k * log_n > math.log(eps):
        k += 1
    return k


def _next_pow2(k: int) -> int:
    return 1 << (k - 1).bit_length() if k > 1 else 1


def partial_product_series(
    w: WeightVector,
    degree: int,
    depth: int,
    shifted: bool = False,
    method: str = "schoolbook",
) -> TruncatedSeries:
    """Degree-m truncation of the depth-k partial product of the MGF.

    Blocks of ``2**j`` consecutive factors are built by squaring with an
    argument rescale (a block starting after ``a`` factors equals the block
    starting at scale 1 evaluated at ``s / N**a``), then the binary digits of
    ``depth`` are combined most-significant first.  For power-of-two depth
    this performs exactly ``log2(depth)`` truncated multiplications.
    """
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    n_base = w.n_branches
    if depth == 0:
        coeffs = np.zeros(degree + 1)
        coeffs[0] = 1.0
        return TruncatedSeries(degree=degree, coeffs=coeffs)
    base = (
        shifted_truncated_factor(w, degree, 1)
        if shifted
        else truncated_factor(w, degree, 1)
    )
    top = depth.bit_length() - 1
    blocks = [base]
    for j in range(top):
        squared = series_mul_trunc(
            blocks[j],
            rescale_argument(blocks[j], float(n_base) ** -(1 << j)),
            degree,
            method=method,
        )
        blocks.append(squared)
    result: TruncatedSeries | None = None
    offset = 0
    for j in range(top, -1, -1):
        if not (depth >> j) & 1:
            continue
        block = blocks[j]
        if offset:
            block = rescale_argument(block, float(n_base) ** -offset)
        result = (
            block
            if result is None
            else series_mul_trunc(result, block, degree, method=method)
        )
        offset += 1 << j
    assert result is not None
    return result


def _split_reconstruct(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Moments ``n! * coeffs[n]`` via (mantissa, exponent) split arithmetic.

    Returns ``(moments, mantissas, exponents)`` with
    ``moments == ldexp(mantissas, exponents)``; the split form never forms
    ``n!`` as a double, so no intermediate overflows for any n.
    """
    mant, exp2 = np.frexp(coeffs)
    out_m = np.empty(len(coeffs))
    out_e = np.empty(len(coeffs), dtype=np.int64)
    fact_m, fact_e = 1.0, 0
    for n in range(len(coeffs)):
        if n > 1:
            fact_m, shift = math.frexp(fact_m * n)
            fact_e += shift
        value_m, value_e = math.frexp(mant[n] * fact_m)
        out_m[n] = value_m
        out_e[n] = int(exp2[n]) + fact_e + value_e
    return np.ldexp(out_m, out_e), out_m, out_e


def _cauchy_bounds(
    n_base: int, depth: int, degree: int, inflate_log: float = 0.0
) -> np.ndarray:
    """Per-index certified bounds ``e*n*sqrt(n-1)/N**k`` (optionally inflated).

    Indices 0 and 1 carry bound 0: those moments are set exactly.  Computed
    in log space so extreme depths underflow cleanly to 0 instead of
    producing inf/inf artifacts.
    """
    bounds = np.zeros(degree + 1)
    if degree >= 2:
        n = np.arange(2, degree + 1, dtype=np.float64)
        log_b = (
            1.0
            + np.log(n)
            + 0.5 * np.log(n - 1.0)
            - depth * math.log(n_base)
            + inflate_log * n
        )
        bounds[2:] = np.exp(log_b)
    return bounds


@dataclass(frozen=True, eq=False)
class FastResult:
    """Approximate moments with per-index certified error bounds.

    ``moments[n]`` approximates the n-th moment at the partial-product depth
    ``depth_used``; ``certified_bound[n]`` bounds ``|true - computed|`` for
    ``n >= 2``, while indices 0 and 1 are exact (bound 0).  The split fields
    satisfy ``moments == ldexp(moment_mantissas, moment_exponents)`` and keep
    the values meaningful when ``n!`` exceeds double range.
    """

    moments: np.ndarray
    depth_used: int
    certified_bound: np.ndarray
    moment_mantissas: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    moment_exponents: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        moments = np.array(self.moments, dtype=np.float64)
        bounds = np.array(self.certified_bound, dtype=np.float64)
        if self.moment_mantissas is None:
            mant, exp2 = np.frexp(moments)
            exp2 = exp2.astype(np.int64)
        else:
            mant = np.array(self.moment_mantissas, dtype=np.float64)
            exp2 = np.array(self.moment_exponents, dtype=np.int64)
        for name, arr in (
            ("moments", moments),
            ("certified_bound", bounds),
            ("moment_mantissas", mant),
            ("moment_exponents", exp2),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FastResult):
            return NotImplemented
        return (
            self.depth_used == other.depth_used
            and np.array_equal(self.moments, other.moments)
            and np.array_equal(self.certified_bound, other.certified_bound)
        )

    def __len__(self) -> int:
        return len(self.moments)

    def split_moment(self, n: int) -> tuple[float, int]:
        """The n-th moment as ``(mantissa, base-2 exponent)``."""
        return float(self.moment_mantissas[n]), int(self.moment_exponents[n])

    def to_csv(self) -> str:
        lines = ["m,value,bound"]
        lines += [
            f"{m},{format_float(v)},{format_float(b)}"
            for m, (v, b) in enumerate(zip(self.moments, self.certified_bound))
        ]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {
                "depth": self.depth_used,
                "moments": [float(v) for v in self.moments],
                "bounds": [float(b) for b in self.certified_bound],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "FastResult":
        data = json.loads(text)
        return cls(
            moments=np.array(data["moments"], dtype=np.float64),
            depth_used=int(data["depth"]),
            certified_bound=np.array(data["bounds"], dtype=np.float64),
        )


def _exact_first_moment(w: WeightVector) -> Fraction:
    """``I_1 = sum_n alpha_n * n / (N - 1)`` from the one-level recurrence."""
    return sum(
        (a * n for n, a in enumerate(w.weights)), Fraction(0)
    ) / (w.n_branches - 1)


def moments_at_depth(w: WeightVector, m_max: int, depth: int) -> FastResult:
    """Moments of the depth-k partial product, with bounds at that depth.

    Unlike :func:`fast_moments` this takes the depth directly (any positive
    integer, not only powers of two) and does not overwrite indices 0 and 1,
    making it the natural probe for convergence studies.
    """
    if depth < 1:
        raise ValueError(f"depth must be a positive integer, got {depth}")
    series = partial_product_series(w, m_max, depth)
    moments, mant, exp2 = _split_reconstruct(series.coeffs)
    return FastResult(
        moments=moments,
        depth_used=depth,
        certified_bound=_cauchy_bounds(w.n_branches, depth, m_max),
        moment_mantissas=mant,
        moment_exponents=exp2,
    )


def fast_moments(w: WeightVector, m_max: int, eps: float) -> FastResult:
    """First ``m_max`` moments within certified uniform error ``eps``.

    Picks the smallest depth whose bound meets ``eps``, rounds it up to a
    power of two (extra depth only tightens the bound) and runs the doubling
    product, performing exactly ``log2(depth)`` truncated multiplications.
    Indices 0 and 1 are set from exact arithmetic and carry bound 0.
    """
    if m_max < 0:
        raise ValueError(f"m_max must be nonnegative, got {m_max}")
    eps = _check_tolerance(eps)
    depth = _next_pow2(depth_for_eps(w.n_branches, m_max, eps)) if m_max >= 2 else 1
    series = partial_product_series(w, m_max, depth)
    moments, mant, exp2 = _split_reconstruct(series.coeffs)
    moments[0] = 1.0
    if m_max >= 1:
        moments[1] = float(_exact_first_moment(w))
    mant, exp2 = np.frexp(moments)
    return FastResult(
        moments=moments,
        depth_used=depth,
        certified_bound=_cauchy_bounds(w.n_branches, depth, m_max),
        moment_mantissas=mant,
        moment_exponents=exp2.astype(np.int64),
    )


def shifted_fast_moments(w: WeightVector, m_max: int, eps: float) -> FastResult:
    """Certified shifted moments of a palindromic weight vector.

    Runs the doubling pipeline on the centered factors (each plain factor
    premultiplied by ``exp(-(N-1)s / (2*N**r))``).  Odd indices are exactly 0
    by symmetry and are forced to 0.  The error bound has no direct analogue
    of the raw-moment estimate, so the reported per-index bound is the
    derived inflation ``(3/2)**n * e * n * sqrt(n-1) / N**k`` obtained by
    pushing the raw bound through the binomial transform; the depth is chosen
    to bring that inflated bound at the top index under ``eps``.
    """
    if not w.is_palindromic:
        raise NotPalindromic(f"shifted moments need palindromic weights, got {w}")
    if m_max < 0:
        raise ValueError(f"m_max must be nonnegative, got {m_max}")
    eps = _check_tolerance(eps)
    depth = (
        _next_pow2(_shifted_depth_for_eps(w.n_branches, m_max, eps))
        if m_max >= 2
        else 1
    )
    series = partial_product_series(w, m_max, depth, shifted=True)
    moments, _, _ = _split_reconstruct(series.coeffs)
    moments[0] = 1.0
    moments[1::2] = 0.0
    bounds = _cauchy_bounds(w.n_branches, depth, m_max, inflate_log=math.log(1.5))
    # Odd shifted moments vanish exactly for a symmetric measure and are
    # reported as exact zeros, so they carry bound 0.
    bounds[1::2] = 0.0
    mant, exp2 = np.frexp(moments)
    return FastResult(
        moments=moments,
        depth_used=depth,
        certified_bound=bounds,
        moment_mantissas=mant,
        moment_exponents=exp2.astype(np.int64),
    )


def mgf_eval(w: WeightVector, s: float, depth: int) -> float:
    """Numeric value of the depth-k partial product of the MGF at ``s``.

    Nondecreasing in ``depth`` for ``s > 0`` (every factor is at least 1
    there) and converges to the moment generating function as depth grows.
    Raises :class:`OutOfRange` for ``depth < 1`` and :class:`FloatOverflow`
    when the value exceeds the largest double, as for ``s = 1e6`` on ternary.
    """
    if depth < 1:
        raise OutOfRange(f"depth must be a positive integer, got {depth}")
    n_base = w.n_branches
    weights = [float(a) for a in w.weights]
    value = 1.0
    try:
        for r in range(1, depth + 1):
            scale = s / n_base**r
            value *= sum(a * math.exp(n * scale) for n, a in enumerate(weights) if a)
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise FloatOverflow(f"MGF partial product at s = {s} exceeds the double range")
    return value
