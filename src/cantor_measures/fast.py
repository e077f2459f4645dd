"""Certified fast approximation of moments via truncated MGF products.

The moment generating function of a base-N weighted Cantor measure is the
infinite product over scales ``r = 1, 2, ...`` of the factors
``sum_n alpha_n * exp(n*s / N**r)``.  The first k factors make the MGF of
``X_k = sum_(r <= k) d_r N**-r``, with independent digits d_r of law alpha,
and ``X = X_k + N**-k X'`` with X' of law mu and independent of X_k.  As
``0 <= X_k <= X <= 1``, ``X**n - X_k**n <= n N**-k X'``; the centred
``Z = X - 1/2`` and ``Z_k`` (offsets ``n - (N-1)/2``) lie in ``[-1/2, 1/2]``
and differ by ``N**-k (X' - 1/2)``.  So for every n >= 1

    0 <= I_n - I_(n;k) <= n * I_1 * N**-k,
    |J_n - J_(n;k)| <= n * 2**-n * N**-k.

These terms replace the paper's Cauchy estimate ``e n sqrt(n-1) / N**k``: the
raw one is at least e times smaller and nearly attained, and the centred one
needs no factor ``(3/2)**n``.

Depths are powers of two: the depth-2k product is the depth-k product times
itself at ``s / N**k``, so depth k costs log2(k) truncated multiplications,
to degree ``min(m, 170)``.  A series is a float64 array of ``moment / n!``.
Each bound is a truncation, a rounding and an underflow term, rounded up
(:func:`_certified`); :func:`depth_for_eps` charges all three, so bounds up
to n = 170 are within eps.  From n = 171, where ``n!`` leaves the double
range, values are 0 and bounds inf; indices above ``DEPTH_CAP`` are refused.

This is the package's float API and its only numpy import; the package root
does not re-export it, so import these names from ``cantor_measures.fast``.
The MGF value (:func:`mgf_eval`, :class:`MgfValue`) needs no arrays: it
lives in :mod:`.analysis`, which imports no numpy, and is re-exported here.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from ._frozen import Frozen
# MgfValue and mgf_eval stay importable from here.
from .analysis import MgfValue, mgf_eval
from .errors import BadTolerance, NotPalindromic, OutOfRange
from .weights import WeightVector, _check_cap, _integer_weights

#: Smallest tolerance the double-precision pipeline certifies.
MIN_TOLERANCE = 1e-12

#: Highest moment index the pipeline returns a value for: 171! is past the
#: double range.
MAX_FINITE_INDEX = 170
_UP = 1 + 178 * 2.0**-53  # exact: the factor that rounds each bound up (:func:`_certified`)


def _exp_terms(x: np.ndarray, degree: int) -> np.ndarray:
    """Rows ``x_i**j / j!`` for ``j = 0..degree``, one per entry of x
    (truncated exp): the running products ``t_j = t_(j-1) * (x_i / j)``."""
    terms = np.empty((len(x), degree + 1))
    terms[:, 0] = 1.0
    np.divide(x[:, None], np.arange(1, degree + 1), out=terms[:, 1:])
    return np.cumprod(terms, axis=1, out=terms)


def series_mul_trunc(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The product of two truncated series, truncated to the length of ``a``.

    The direct sum of products keeps the relative accuracy of every
    nonnegative coefficient, however small; an FFT product's error is normwise.
    The exact zeros that end ``b`` (where ``sigma**j`` underflows in
    :func:`partial_product_series`) give only zero products and are skipped.
    """
    nonzero = np.nonzero(b)[0]
    return np.convolve(a, b[: nonzero[-1] + 1] if len(nonzero) else b)[: len(a)]


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


def _round_up(x: Fraction) -> float:
    """The smallest double at least ``x``."""
    f = float(x)
    return math.nextafter(f, math.inf) if Fraction(f) < x else f


def _first_moment(w: WeightVector) -> Fraction:
    """Exact ``I_1 = sum_n n p_n / (A (N - 1))``, from the one-level recurrence,
    with ``alpha_n = p_n / A`` (:func:`_integer_weights`)."""
    numerators, common = _integer_weights(w)
    return Fraction(sum(n * p for n, p in enumerate(numerators)), common * (w.n_branches - 1))


def _rounding(n_base: int, depth: int, n):
    """Relative rounding bound at index n (scalar or array) at depth k.

    ``rho / (1 - 2 rho)`` for the ``rho(n)`` unit roundoffs counted in
    :func:`_certified`: gamma_rho relative to the computed, not the true,
    value.
    """
    mults = depth.bit_length() - 1
    rho = ((4 + 3 * mults) * n + depth * (n_base + 5) - 4) * 2.0**-53  # times u
    return rho / (1.0 - 2.0 * rho)


def _underflow(n_base: int, depth: int, n, factorial):
    """Absolute underflow bound ``(2 + 16**L (n + N + 8) 2**-n) n! eta`` at index n
    (scalar or array), depth ``2**L`` (:func:`_certified`); exact after the ceil."""
    count = 16.0 ** (depth.bit_length() - 1) * (n + n_base + 8)
    return np.ceil((1.0 + count * 0.5 ** (n + 1)) * factorial) * 2.0**-1074  # 2**-1075 is 0.0


def depth_for_eps(n_base: int, m: int, eps: float, shifted: bool = False) -> int:
    """Smallest power-of-two depth k whose printed bounds are at most eps at
    every index ``2..min(m, 170)`` the product certifies; the certified path
    runs this k, and depth 1 when ``m < 2``.

    With ``I_1 <= 1`` the raw sum, ``n N**-k`` plus the rounding term
    (:func:`_rounding`) on a value of at most 1, is largest at the top
    index; the centred sum, ``2**-n`` times that, at n = 2; the underflow
    term (:func:`_underflow`) at the top index on both.  Summed and times ``_UP``
    as in :func:`_certified`, they give at most eps, and by monotone rounding so
    does every bound.  Raises :class:`BadTolerance` where the last two reach eps.
    """
    eps = _check_tolerance(eps)
    top = min(m, MAX_FINITE_INDEX)
    if top < 2:
        return 1
    n, size = (2, 0.25) if shifted else (top, 1.0)
    factorial, depth = math.prod(map(float, range(1, top + 1))), 1  # as _certified's
    while True:
        rounding = _rounding(n_base, depth, n) * size
        underflow = _underflow(n_base, depth, top, factorial)
        if (rounding + underflow) * _UP >= eps:  # both terms only grow with the depth
            raise BadTolerance(
                f"eps = {eps} is below the rounding error at index {n} (depth {depth})"
            )
        if (rounding + n * size * float(n_base) ** -depth + underflow) * _UP <= eps:
            return depth
        depth *= 2


def partial_product_series(
    w: WeightVector, degree: int, depth: int, shifted: bool = False
) -> np.ndarray:
    """Degree-m truncation of the depth-k partial product of the MGF.

    Depth 1 is the first factor, ``sum_n alpha_n * (c_n / N)**j / j!`` at
    index j, with offsets ``c_n = n``, or ``n - (N-1)/2`` when ``shifted``.
    The depth k must be a power of two.  Each of the ``log2(k)`` truncated
    multiplications squares the product of the first ``2**j`` factors with
    an argument rescale: the next ``2**j`` factors are that product at
    ``s / N**(2**j)``.  It works at scale ``2**n``, as the product at
    ``2s``, and one ``ldexp`` by ``-n`` ends it, so an underflow before that
    costs ``2**-n`` times less (:func:`_certified`).  The first factor is one
    array: row n holds the running products of ``x_n / j``, ``x_n = 2 c_n / N``
    (:func:`_exp_terms`), and the weighted rows are summed in branch order.
    From there the series is carried at a further scale ``2**500``, exact in
    both directions: each product is formed at ``2**1000`` and scaled back
    by ``2**-500``, so it stays in the normal range unless its true value is
    below about ``2**-1522``, and the last ``ldexp`` by ``-500 - n`` ends it.
    Coefficient n reads only inputs 0..n, and numpy sums the same products in
    the same order at every degree from 170 up, so the degree-170 result is,
    bit for bit, the prefix of the result at any higher degree;
    :func:`_certified` asks for degree ``min(m, 170)``.
    """
    if degree < 0:
        raise OutOfRange(f"degree must be nonnegative, got {degree}")
    if depth < 1 or depth & (depth - 1):
        raise OutOfRange(f"depth must be a power of two, got {depth}")
    center = (w.n_branches - 1) / 2 if shifted else 0
    live = [(float(a), 2 * (n - center) / w.n_branches) for n, a in enumerate(w.weights) if a]
    weights, xs = np.array(live).T
    result = (weights[:, None] * _exp_terms(xs, degree)).sum(axis=0)
    # The constant term is sum(alpha) = 1 exactly; don't let the float
    # conversions of the individual weights smear it.
    result[0] = 1.0
    result = np.ldexp(result, 500)
    powers = np.arange(degree + 1)
    for j in range(depth.bit_length() - 1):
        sigma = float(w.n_branches) ** -(1 << j)
        result = np.ldexp(series_mul_trunc(result, result * sigma**powers), -500)
    return np.ldexp(result, -500 - powers)


def _certified(
    w: WeightVector, m_max: int, depth: int, shifted: bool,
    first_moment: Fraction | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Depth-k moments and bounds: truncation, rounding and underflow error, rounded up.

    Truncation: ``n I_1 N**-k`` with ``I_1 = first_moment`` rounded up
    (None on the centred path), centred ``n 2**-n N**-k``.
    ``rho(n)`` counts the unit roundoffs u from the weights to moment n, per
    coefficient j <= n and with libm ``pow`` within 1 ulp (2 roundoffs):
    factor ``3j + N + 1`` (offset 1, ``x**j/j!`` 3j, of which each step of
    the recurrence below takes two, weight and product 2, sum over N
    branches N - 1); rescale by ``sigma**j`` ``2j + 3``; product
    n + 1 plus the counts of both inputs.  Over the ``L = log2 k``
    multiplications of depth k that is ``(3 + 3L) n + k (N + 5) - 4``, and
    the factorial adds n.  The error is then
    ``gamma_rho = rho u / (1 - rho u)`` relative to the depth-k moment on
    the raw path (nonnegative terms), or to ``2**-n`` on the centred path
    (every ``|offset| / N <= 1/2`` bounds the absolute-value series).

    That count assumes no product underflows.  At the product's scale
    ``2**n`` every coefficient is at most 2, and the absolute-value series of
    every input sums to at most ``e**2 < 8`` at s = 1.  An underflowing
    product or quotient is off by at most ``eta = 2**-1075`` more (half the
    smallest subnormal), ``pow`` by ``2 eta``; sums are exact there.  In
    units of eta at that scale: ``x**j/j!`` by ``t_j = t_(j-1) * fl(x / j)``
    with ``|x| < 2``, where the quotient never underflows, is within
    ``E_j <= (2/j) E_(j-1) + 1 <= 3 < 4``, and a factor within ``N + 5``.
    The products run at the further scale ``2**500`` of
    :func:`partial_product_series`, exact both ways: operands are at most
    ``2**501`` and every sum of products is below ``64 * 2**1000``, so
    nothing overflows, and a product or its rescale by ``2**-500`` underflows
    only by ``2**-500`` eta.  Every charge here is in units of the
    ``2**n``-scaled series and only shrinks with that scale: the rescale by
    ``sigma**j <= 1`` still adds at most 5 (``pow``'s ``2 eta`` on a
    coefficient of at most 2, and the product), and a product of inputs
    within A and B is within ``8A + 8B + n + 2``, so L multiplications give
    at most ``16**L (n + 15N + 117) / 15``; the final ``ldexp`` scales that
    by ``2**-n`` and adds one eta.  :func:`_underflow` charges
    ``2 + 16**L (n + N + 8) 2**-n`` times ``n! eta``, one eta more, for the
    rounding of n! and of the term: below ``4e-17`` up to n = 170 at depths
    up to ``2**20``.

    Each float operation loses at most u, ``pow`` 2 u: 5 u in the rounding term, 6 in the
    truncation term, ``n + 4 <= 174`` in the underflow term (with ``n - 1`` factorial
    products) and 3 in the sums and ``_UP``, whose ``178 u`` covers the 177 and a subnormal
    rounding while truncation is normal: so each bound is at least its exact formula.
    """
    # The product to degree ``top`` is the prefix of the degree-m one, bit
    # for bit (:func:`partial_product_series`).
    top = min(m_max, MAX_FINITE_INDEX)
    n = np.arange(top + 1, dtype=np.float64)
    factorial = np.cumprod(np.maximum(n, 1.0))
    moments = partial_product_series(w, top, depth, shifted) * factorial
    lead = 0.5**n if shifted else _round_up(first_moment)
    bounds = _rounding(w.n_branches, depth, n) * (lead if shifted else np.abs(moments))
    bounds += n * lead * float(w.n_branches) ** -depth
    bounds = (bounds + _underflow(w.n_branches, depth, n, factorial)) * _UP
    # The constant coefficient is a product of exact ones.
    bounds[0] = 0.0
    tail = m_max - top
    return (np.concatenate([moments, np.zeros(tail)]),
            np.concatenate([bounds, np.full(tail, math.inf)]))


class FastResult(Frozen):
    """Approximate moments with per-index certified error bounds.

    ``moments[n]`` approximates the n-th moment at the partial-product depth
    ``depth_used``; ``certified_bound[n]`` bounds ``|true - computed|``,
    truncation, rounding and underflow included (index 0 is exact, bound
    0).  The arrays are read-only one-dimensional copies of equal length; a
    result equals only itself.  A certified-path result keeps in ``_tail_start``
    the start of its 0/inf run, ``min(m, 170) + 1``; others render each row from its values.
    """

    __slots__ = ("moments", "depth_used", "certified_bound", "_tail_start")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, moments: np.ndarray, depth_used: int,
                 certified_bound: np.ndarray) -> None:
        object.__setattr__(self, "depth_used", depth_used)
        for name, values in (("moments", moments), ("certified_bound", certified_bound)):
            arr = np.array(values, dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.moments.ndim != 1 or self.moments.shape != self.certified_bound.shape:
            raise ValueError(
                f"moments of shape {self.moments.shape} and bounds of shape "
                f"{self.certified_bound.shape} are not two 1-D arrays of equal length"
            )

    def to_csv(self) -> str:
        # Python floats from tolist() format as format_float does.  One "%"
        # template renders every row: three fields per computed row, then
        # the index of each tail row, "m,0,inf" or "m,0,0".
        size = len(self.moments)
        top = getattr(self, "_tail_start", size)
        fields = [None] * (3 * top)
        fields[0::3] = range(top)
        fields[1::3] = self.moments[:top].tolist()
        fields[2::3] = self.certified_bound[:top].tolist()
        formats = ["%%d,0,%.17g\n" % b for b in self.certified_bound[top:top + 2].tolist()]
        count = size - top
        tail = "".join(formats) * (count // 2) + "".join(formats[:count % 2])
        template = "m,value,bound\n" + "%d,%.17g,%.17g\n" * top + tail
        return template % (*fields, *range(top, size))

    def to_json(self) -> str:
        # Equal to json.dumps of the dict of depth and both lists; only the
        # rows before the tail go through json.dumps.
        import json

        size = len(self.moments)
        top = getattr(self, "_tail_start", size)
        period = self.certified_bound[top:top + 2].tolist()

        def array(values: np.ndarray, fill: list[str]) -> str:
            items = [json.dumps(values[:top].tolist())[1:-1]] if top else []
            return "[" + ", ".join(items + (fill * (size - top))[:size - top]) + "]"

        return (f'{{"depth": {json.dumps(self.depth_used)}, '
                f'"moments": {array(self.moments, ["0.0"])}, '
                f'"bounds": {array(self.certified_bound, [json.dumps(b) for b in period])}}}')


def _certified_to_eps(w: WeightVector, m_max: int, eps: float, shifted: bool) -> FastResult:
    """Certified moments to eps: depth, product, moments and bounds, low indices."""
    if m_max < 0:
        raise OutOfRange(f"m_max must be nonnegative, got {m_max}")
    _check_cap(m_max, f"m_max = {m_max}")
    depth = depth_for_eps(w.n_branches, m_max, eps, shifted)
    exact = None if shifted else _first_moment(w)
    moments, bounds = _certified(w, m_max, depth, shifted, exact)
    if shifted:
        moments[1::2] = bounds[1::2] = 0.0
    elif m_max >= 1:
        moments[1] = float(exact)
        bounds[1] = _round_up(abs(Fraction(moments[1]) - exact))
    result = FastResult(moments=moments, depth_used=depth, certified_bound=bounds)
    object.__setattr__(result, "_tail_start", min(m_max, MAX_FINITE_INDEX) + 1)
    return result


def fast_moments(w: WeightVector, m_max: int, eps: float) -> FastResult:
    """First ``m_max`` moments within certified uniform error ``eps``.

    Picks the smallest power-of-two depth whose truncation term
    ``n I_1 N**-k``, rounding and underflow terms together meet ``eps`` up to
    index ``min(m_max, 170)`` (:func:`depth_for_eps`) and runs the doubling
    product, performing exactly ``log2(depth)`` truncated multiplications.
    Index 0 is exact; index 1 is the double nearest the exact ``I_1`` and
    its bound is that rounding error.  Bounds up to n = 170 are within eps;
    from n = 171 values are 0 and bounds inf.  Raises :class:`DepthOverflow`
    for ``m_max`` above :data:`~cantor_measures.weights.DEPTH_CAP`, before
    anything is built.
    """
    return _certified_to_eps(w, m_max, eps, shifted=False)


def shifted_fast_moments(w: WeightVector, m_max: int, eps: float) -> FastResult:
    """Certified shifted moments of a palindromic weight vector.

    :func:`fast_moments` on the centred factors, with the truncation term
    ``n 2**-n N**-k``, which is largest at n = 2, so the depth does not grow
    with ``m_max``.  Odd indices vanish by symmetry and are set to 0 with
    bound 0.
    """
    if not w.is_palindromic:
        raise NotPalindromic(f"shifted moments need palindromic weights, got {w}")
    return _certified_to_eps(w, m_max, eps, shifted=True)
