"""Monic orthogonal polynomials of a weighted Cantor measure.

They obey ``p_{k+1} = (x - a_k) p_k - b_k p_{k-1}`` with ``p_{-1} = 0`` and
``p_0 = 1``.  The classical Chebyshev algorithm (W. Gautschi, *Orthogonal
Polynomials: Computation and Approximation*, OUP 2004, sec. 2.1.7) obtains
``a_k`` and ``b_k`` from the moments ``I_0..I_{2d}`` in O(d**2) exact
rational operations, so orthogonality of the result is exact.  For
palindromic weights every ``a_k`` is 1/2 and the basis alternates parity
about ``x = 1/2``.  Polynomials are coefficient tuples in ascending order.
"""
from __future__ import annotations

import json
import math
from collections.abc import Sequence
from fractions import Fraction

from ._frozen import Frozen
from .errors import InsufficientMoments, NotPalindromic, OutOfRange, ZeroNorm
from .measure import WeightVector
from .moments import MomentSequence, exact_moments
from .rational import as_fraction, format_float, format_rational

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


def eval_poly(p: Sequence, x):
    """Horner evaluation; exact for rational ``x``, float for float ``x``."""
    coeffs = tuple(p)
    acc = coeffs[-1] if coeffs else 0
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
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
        return json.dumps(
            {
                "degree": self.degree,
                "polys": [[format_rational(c) for c in p] for p in self.polys],
                "norms_sq": [format_rational(v) for v in self.norms_sq],
            }
        )


def monic_basis_general(w: WeightVector, degree: int) -> OrthoBasis:
    """Monic orthogonal basis ``p_0..p_degree`` by the Chebyshev algorithm.

    The exact moments ``I_0..I_{2*degree}`` seed the mixed moments
    ``sigma_k[l] = <p_k, x**l>``; row k gives ``a_k = sigma_k[k+1]/sigma_k[k]
    - sigma_{k-1}[k]/sigma_{k-1}[k-1]`` and ``b_k = sigma_k[k]/sigma_{k-1}[k-1]``.
    Raises :class:`ZeroNorm` at the first k with ``|p_k|^2 = sigma_k[k] = 0``,
    which happens exactly when the measure is finitely supported.
    """
    if degree < 0:
        raise OutOfRange(f"degree must be nonnegative, got {degree}")
    top = 2 * degree
    sigma_prev, sigma = [0] * (top + 1), exact_moments(w, top).values
    ratio_prev, p_prev, p = 0, (), (Fraction(1),)
    polys, norms = [p], [sigma[0]]
    for k in range(degree):
        ratio = sigma[k + 1] / sigma[k]
        a, b = ratio - ratio_prev, (sigma[k] / sigma_prev[k - 1] if k else 0)
        sigma_prev, sigma = sigma, [
            sigma[l + 1] - a * sigma[l] - b * sigma_prev[l] if k < l < top - k else 0
            for l in range(top + 1)
        ]
        if sigma[k + 1] == 0:
            raise ZeroNorm(f"zero norm at degree {k + 1}: support has {k + 1} points")
        terms = zip((0, *p), (*p, 0), (*p_prev, 0, 0))  # x p_k, p_k, p_{k-1}
        p_prev, p = p, tuple(hi - a * mid - b * lo for hi, mid, lo in terms)
        ratio_prev = ratio
        polys.append(p)
        norms.append(sigma[k + 1])
    return OrthoBasis(polys=tuple(polys), norms_sq=tuple(norms))


def monic_basis_symmetric(w: WeightVector, degree: int) -> OrthoBasis:
    """:func:`monic_basis_general` restricted to palindromic weights."""
    if not w.is_palindromic:
        raise NotPalindromic(f"symmetric basis needs palindromic weights: {w}")
    return monic_basis_general(w, degree)


def normalize(basis: OrthoBasis) -> list[list[float]]:
    """Float coefficients of the unit-norm polynomials ``p_n / |p_n|``."""
    out = []
    for poly, norm_sq in zip(basis.polys, basis.norms_sq):
        if norm_sq <= 0:
            raise ZeroNorm("cannot normalize a zero-norm polynomial")
        scale = 1.0 / math.sqrt(float(norm_sq))
        out.append([float(c) * scale for c in poly])
    return out


def grid_csv(basis: OrthoBasis, n_points: int = GRID_POINTS) -> str:
    """CSV of the normalized polynomials on a uniform grid of ``[0, 1]``.

    Header ``x,p0,...,pd``; one row per grid point.  This is the plot-data
    export for staircase-measure polynomial figures.
    """
    if n_points < 2:
        raise OutOfRange(f"need at least 2 grid points, got {n_points}")
    normalized = normalize(basis)
    header = "x," + ",".join(f"p{n}" for n in range(len(normalized)))
    lines = [header]
    for i in range(n_points):
        x = i / (n_points - 1)
        row = [format_float(x)]
        row += [format_float(eval_poly(p, x)) for p in normalized]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


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
