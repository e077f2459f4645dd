"""Monic orthogonal polynomials of a weighted Cantor measure.

They obey ``p_{k+1} = (x - a_k) p_k - b_k p_{k-1}`` with ``p_{-1} = 0`` and
``p_0 = 1``.  The classical Chebyshev algorithm (W. Gautschi, *Orthogonal
Polynomials: Computation and Approximation*, OUP 2004, sec. 2.1.7) obtains
``a_k`` and ``b_k`` from the moments ``I_0..I_{2d}`` in O(d**2) exact
rational operations, so orthogonality of the result is exact.  For
palindromic weights every ``a_k`` is 1/2 and the basis alternates parity
about ``x = 1/2``.  Polynomials are coefficient tuples in ascending order.
The float plot grid evaluates the same recurrence, not the monomial
coefficients, whose power form is ill-conditioned (W. Gautschi, "The
condition of polynomials in power form", *Math. Comp.* 33, 1979).
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from ._frozen import Frozen
from .errors import FloatOverflow, InsufficientMoments, NotPalindromic, OutOfRange, ZeroNorm
from .weights import WeightVector, _check_cap
from .moments import MomentSequence, _self_similar_moments
from .rational import as_fraction, format_rational

Polynomial = tuple[Fraction, ...]

#: Default number of points of the :func:`grid_csv` plot-data grid.
GRID_POINTS = 201


def _as_poly(coeffs: Sequence) -> Polynomial:
    poly = tuple(as_fraction(c) for c in coeffs)
    return poly if poly else (Fraction(0),)


def inner_product(p: Sequence, q: Sequence, moments: MomentSequence) -> Fraction:
    """Exact inner product ``sum_{i,j} p_i q_j I_{i+j}`` against the moments."""
    pc, qc = _as_poly(p), _as_poly(q)
    values = moments.values
    needed = len(pc) + len(qc) - 1
    if len(values) < needed:
        raise InsufficientMoments(
            f"need moments up to degree {needed - 1}, got {len(values) - 1}"
        )
    acc = Fraction(0)
    for i, pi in enumerate(pc):
        if pi == 0:
            continue
        for j, qj in enumerate(qc):
            if qj == 0:
                continue
            acc += pi * qj * values[i + j]
    return acc


class OrthoBasis(Frozen):
    """Monic orthogonal polynomials ``p_0..p_d`` with exact squared norms."""

    __slots__ = ("polys", "norms_sq")

    def __init__(self, polys: tuple[Polynomial, ...], norms_sq: tuple[Fraction, ...]) -> None:
        if len(polys) != len(norms_sq):
            raise ValueError("polys and norms_sq must have equal length")
        for n, poly in enumerate(polys):
            if len(poly) != n + 1 or poly[-1] != 1:
                raise ValueError(f"polys[{n}] is not monic of exact degree {n}")
        object.__setattr__(self, "polys", polys)
        object.__setattr__(self, "norms_sq", norms_sq)

    @property
    def degree(self) -> int:
        return len(self.polys) - 1

    def to_json(self) -> str:
        import json

        return json.dumps(
            {
                "degree": self.degree,
                "polys": [[format_rational(c) for c in p] for p in self.polys],
                "norms_sq": [format_rational(v) for v in self.norms_sq],
            }
        )


def _combine(hi: list[int], mid: list[int], lo: list[int], den: int, den_lo: int,
             a: Fraction, b: Fraction) -> tuple[list[int], int]:
    """``hi - a * mid - b * lo`` as integers over one reduced denominator.

    ``hi`` and ``mid`` are numerators over ``den``, ``lo`` over ``den_lo``;
    the result is reduced by one gcd over the whole row (:func:`_reduce`).
    """
    common = math.lcm(a.denominator * den, b.denominator * den_lo)
    f_hi = common // den
    f_mid = f_hi // a.denominator * a.numerator
    f_lo = common // (b.denominator * den_lo) * b.numerator
    return _reduce([h * f_hi - m * f_mid - l * f_lo for h, m, l in zip(hi, mid, lo)], common)


def _reduce(row: list[int], den: int) -> tuple[list[int], int]:
    """``row / den`` over the least common denominator, by one gcd."""
    g = math.gcd(den, *row)
    return [v // g for v in row], den // g


def monic_basis_general(w: WeightVector, degree: int) -> OrthoBasis:
    """Monic orthogonal basis ``p_0..p_degree`` by the Chebyshev algorithm.

    The exact moments ``I_0..I_{2*degree}`` seed the mixed moments
    ``sigma_k[l] = <p_k, x**l>``; row k gives ``a_k = sigma_k[k+1]/sigma_k[k]
    - sigma_{k-1}[k]/sigma_{k-1}[k-1]`` and ``b_k = sigma_k[k]/sigma_{k-1}[k-1]``.
    Raises :class:`ZeroNorm` at the first k with ``|p_k|^2 = sigma_k[k] = 0``,
    which happens exactly when the measure is finitely supported.

    Each sigma row and each polynomial is held as integer numerators over
    one denominator, reduced by one gcd per row; only ``a_k``, ``b_k`` and
    the output are ``Fraction``.  The moments enter unreduced, as the
    moment kernel returns them.
    """
    if degree < 0:
        raise OutOfRange(f"degree must be nonnegative, got {degree}")
    top = 2 * degree
    numerators, denominators, _ = _self_similar_moments(w, range(w.n_branches), top)
    common = denominators[-1]
    sigma, den = _reduce([u * (common // d) for u, d in zip(numerators, denominators)], common)
    sigma_prev, den_prev = [0] * (top + 1), 1
    ratio_prev = zero = Fraction(0)
    p_prev, p, p_den, p_den_prev = [], [1], 1, 1
    polys, norms = [(Fraction(1),)], [Fraction(1)]
    for k in range(degree):
        ratio = Fraction(sigma[k + 1], sigma[k])
        a = ratio - ratio_prev
        b = Fraction(sigma[k] * den_prev, sigma_prev[k - 1] * den) if k else zero
        # sigma_{k+1}[l] for k < l < top - k; the entries outside stay 0.
        inner, inner_den = _combine(sigma[k + 2:top - k + 1], sigma[k + 1:top - k],
                                    sigma_prev[k + 1:top - k], den, den_prev, a, b)
        if inner[0] == 0:
            raise ZeroNorm(f"zero norm at degree {k + 1}: support has {k + 1} points")
        pad = [0] * (k + 1)
        sigma_prev, den_prev, sigma, den = sigma, den, pad + inner + pad, inner_den
        # p_{k+1} from x p_k, p_k and p_{k-1}
        p_next, p_next_den = _combine([0, *p], [*p, 0], [*p_prev, 0, 0], p_den, p_den_prev, a, b)
        p_prev, p_den_prev, p, p_den = p, p_den, p_next, p_next_den
        ratio_prev = ratio
        polys.append(tuple(Fraction(c, p_den) for c in p))
        norms.append(Fraction(inner[0], den))
    return OrthoBasis(polys=tuple(polys), norms_sq=tuple(norms))


def monic_basis_symmetric(w: WeightVector, degree: int) -> OrthoBasis:
    """:func:`monic_basis_general` restricted to palindromic weights."""
    if not w.is_palindromic:
        raise NotPalindromic(f"symmetric basis needs palindromic weights: {w}")
    return monic_basis_general(w, degree)


def grid_csv(basis: OrthoBasis, n_points: int = GRID_POINTS) -> str:
    """CSV of the normalized polynomials on a uniform grid of ``[0, 1]``.

    Header ``x,p0,...,pd``; one row per grid point.  This is the plot-data
    export for staircase-measure polynomial figures.  The monic recurrence
    ``p_{k+1} = (x - a_k) p_k - b_k p_{k-1}`` runs in floats over all grid
    points at once, and column n is scaled once by ``1 / sqrt(|p_n|^2)``.
    The basis gives ``a_k = p_k[k-1] - p_{k+1}[k]`` and
    ``b_k = |p_k|^2 / |p_{k-1}|^2``, each rounded correctly by one integer
    true division.  Float monomial coefficients would lose every digit by
    degree 24; this form keeps each value within about 4e-14 of
    ``max(1, |value|)`` up to degree 40.
    Raises :class:`OutOfRange` for fewer than 2 points, and
    :class:`DepthOverflow` for more than ``DEPTH_CAP`` values (points times
    polynomials), before any list is built; :class:`ZeroNorm` for a zero
    norm, and :class:`FloatOverflow` when a norm or a value leaves the
    double range.
    """
    if n_points < 2:
        raise OutOfRange(f"need at least 2 grid points, got {n_points}")
    polys, norms = basis.polys, basis.norms_sq
    _check_cap(n_points * len(polys), f"a grid of {n_points} points by {len(polys)} polynomials")
    xs = [i / (n_points - 1) for i in range(n_points)]
    columns, prev, cur = [xs], [0.0] * n_points, [1.0] * n_points
    for n, norm_sq in enumerate(norms):
        if norm_sq <= 0:
            raise ZeroNorm(f"cannot normalize the zero-norm p_{n}")
        try:
            if n:
                k = n - 1
                c, c_next = polys[k][k - 1] if k else Fraction(0), polys[n][k]
                a = (c.numerator * c_next.denominator - c_next.numerator * c.denominator) / (
                    c.denominator * c_next.denominator)
                b = (norms[k].numerator * norms[k - 1].denominator
                     / (norms[k].denominator * norms[k - 1].numerator)) if k else 0.0
                prev, cur = cur, [(x - a) * p - b * q for x, p, q in zip(xs, cur, prev)]
            scale = 1.0 / math.sqrt(float(norm_sq))
            column = [v * scale for v in cur]
            if not all(map(math.isfinite, column)):
                raise OverflowError
        except (ZeroDivisionError, OverflowError):
            raise FloatOverflow(f"the normalized p_{n} leaves the double range") from None
        columns.append(column)
    header = "x," + ",".join(f"p{n}" for n in range(len(norms)))
    row = ",".join(["%.17g"] * len(columns))  # format_float on every field
    return "\n".join([header, *(row % values for values in zip(*columns))]) + "\n"


class BasisExport(Frozen):
    """A basis rendered as its JSON, or as :func:`grid_csv` at ``n_points``."""

    __slots__ = ("basis", "n_points")

    def __init__(self, basis: OrthoBasis, n_points: int) -> None:
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "n_points", n_points)

    def to_csv(self) -> str:
        return grid_csv(self.basis, self.n_points)

    def to_json(self) -> str:
        return self.basis.to_json()
