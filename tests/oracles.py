"""Independent oracles: slow, direct forms of what the package computes fast.

None of these is package API.  Each one recomputes a quantity by another
route than the package does, so that agreement between the two is evidence
for both.
"""
from __future__ import annotations

import argparse
import json
import math
import re
from decimal import Context, Decimal
from fractions import Fraction
from itertools import product
from typing import Callable, Iterator, Sequence

import numpy as np

from cantor_measures import (
    CdfTable,
    DecayReport,
    MomentSequence,
    OrthoBasis,
    OutOfRange,
    WeightVector,
    ZeroNorm,
    exact_moments,
    parse_weights,
)
from cantor_measures.fast import FastResult, _certified, _first_moment, partial_product_series
from cantor_measures.measure import _digit_products, _integer_weights
from cantor_measures.legendre import GRID_POINTS
from cantor_measures.rational import format_int, format_rational


def branch_recurrence_moments(
    w: WeightVector, m_max: int, shifted: bool = False
) -> tuple[Fraction, ...]:
    """Raw moments ``I_0..I_{m_max}``, or shifted ``J_0..J_{m_max}``.

    Solves ``A (N**m - 1) X_m = sum_n p_n sum_{i<m} C(m,i) c_n**(m-i) X_i``
    for ``X_m = E[(qY)**m]``, branch by branch inside the i loop, with the
    offsets ``c_n = n`` (q = 1) or ``c_n = 2n - N + 1`` (q = 2).  All stored
    numerators share one denominator, and the whole prefix is rescaled by
    each new step factor ``A (N**m - 1)``.  This is the kernel the package
    used before its power-sum Horner form.
    """
    n_base = w.n_branches
    q = 2 if shifted else 1
    offsets = range(1 - n_base, n_base, 2) if shifted else range(n_base)
    common = math.lcm(*(a.denominator for a in w.weights))
    branches = [(int(a * common), c) for a, c in zip(w.weights, offsets) if a and c]
    scaled = [1]
    denom = 1
    for m in range(1, m_max + 1):
        total = 0
        for p_n, c in branches:
            total += p_n * sum(
                scaled[i] * (math.comb(m, i) * c ** (m - i)) for i in range(m)
            )
        step = common * (n_base**m - 1)
        scaled = [u * step for u in scaled]
        scaled.append(total)
        denom *= step
    return tuple(Fraction(u, denom * q**m) for m, u in enumerate(scaled))


def full_stride_moments(
    w: WeightVector, offsets: Sequence[int], m_max: int, q: int = 1
) -> tuple[list[int], list[int]]:
    """Unreduced ``E[Y**m] = u_m / D_m`` by the power-sum Horner kernel at stride 1.

    The package's kernel before it stepped over even indices only: every
    step factor ``s_j = A (N**j - 1)`` enters ``D_m = s_1 * ... * s_m * q**m``,
    and odd power sums that vanish are skipped term by term.
    """
    n_base = w.n_branches
    numerators, common = _integer_weights(w)
    branches = [(p_n, c) for p_n, c in zip(numerators, offsets) if p_n and c]
    power_sums = [0]
    terms = [p_n for p_n, _ in branches]
    for _ in range(m_max):
        terms = [t * c for t, (_, c) in zip(terms, branches)]
        power_sums.append(sum(terms))
    steps = [common * (n_base**j - 1) for j in range(m_max + 1)]
    scaled = [1]
    for m in range(1, m_max + 1):
        acc = power_sums[m]
        for i in range(1, m):
            acc *= steps[i]
            coefficient = math.comb(m, i) * power_sums[m - i]
            if coefficient:
                acc += coefficient * scaled[i]
        scaled.append(acc)
    denominators = [1]
    for m in range(1, m_max + 1):
        denominators.append(denominators[-1] * steps[m] * q)
    return scaled, denominators


def moments_csv(moments: MomentSequence) -> str:
    """CSV of a moment sequence with :func:`format_int` on both parts of
    each value: the package's renderer before it printed denominators from
    the kernel's chain."""
    rows = [f"{m},{format_int(v.numerator)},{format_int(v.denominator)}"
            for m, v in enumerate(moments.values)]
    return "\n".join(["m,numerator,denominator", *rows]) + "\n"


def moments_json(moments: MomentSequence) -> str:
    """JSON of a moment sequence rendered value by value, as :func:`moments_csv`."""
    return json.dumps({"kind": moments.kind,
                       "moments": [format_rational(v) for v in moments.values],
                       "weights": [format_rational(a) for a in moments.weights]})


def exact_moments_via_depth(w: WeightVector, k: int, m_max: int) -> MomentSequence:
    """Raw moments ``I_0..I_{m_max}`` from the depth-k recurrence.

    Enumerates all ``N**k`` addresses to evaluate the inner weighted power
    sums exactly, then solves the same telescoping identity at depth k.  The
    result equals the depth-one recurrence for every k.
    """
    n_base = w.n_branches
    size = n_base**k
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
    for m in range(1, m_max + 1):
        acc = sum(
            math.comb(m, i) * size ** (m - i) * values[i] * digit_sums[m - i]
            for i in range(m)
        )
        values.append(acc / (size**m - 1))
    return MomentSequence(weights=w, kind="raw", values=tuple(values))


def left_endpoint_sum(w: WeightVector, k: int, m: int) -> Fraction:
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


def approx_error_depth(n_base: int, m: int, eps: Fraction) -> int:
    """Smallest depth k with ``(1 + N**-k)**m - 1 <= eps``.

    The gap ``I_m - left_endpoint_sum(w, k, m)`` is strictly below that
    quantity, so the depth-k lower sum is within eps of ``I_m``.
    """
    k = 1
    while (1 + Fraction(1, n_base**k)) ** m - 1 > eps:
        k += 1
    return k


def palindromic_odd_moment(prefix: Sequence[Fraction], m: int) -> Fraction:
    """Odd moment ``I_m`` of a symmetric measure from ``I_0..I_{m-1}``.

    For palindromic weights and odd m, the MGF identity ``G(s) = e**s G(-s)``
    collapses to ``I_m = (1/2) * sum_{i<m} (-1)**i C(m,i) I_i``.
    """
    return sum((-1) ** i * math.comb(m, i) * prefix[i] for i in range(m)) / 2


def moments_at_depth(w: WeightVector, m_max: int, depth: int) -> FastResult:
    """Moments of the depth-k partial product (k a power of two), with bounds.

    Unlike ``fast_moments`` it keeps indices 0 and 1 as computed; index 1 is
    ``I_1 * (1 - N**-k)``, within the truncation term ``I_1 N**-k``.
    """
    moments, bounds = _certified(w, m_max, depth, False, _first_moment(w))
    return FastResult(moments=moments, depth_used=depth, certified_bound=bounds)


def factor_by_factor_series(
    w: WeightVector, degree: int, depth: int, shifted: bool = False
) -> np.ndarray:
    """Degree-m truncation of the depth-k MGF partial product, one factor at a time.

    Factor r is the scale-1 factor (:func:`partial_product_series` at depth
    1) at ``s / N**(r-1)``, so its coefficient j is rescaled by
    ``N**(-(r-1) j)``.
    ``depth - 1`` plain truncated products, where the package squares
    ``log2(depth)`` times.
    """
    first = partial_product_series(w, degree, 1, shifted)
    powers = np.arange(degree + 1)
    result = first
    for r in range(2, depth + 1):
        factor = first * (float(w.n_branches) ** -(r - 1)) ** powers
        result = np.convolve(result, factor)[: degree + 1]
    return result


def interval_mass(w: WeightVector, digits: Sequence[int]) -> Fraction:
    """Mass of the depth-k N-adic interval addressed by base-N ``digits``.

    Returns ``prod_l alpha_{digits[l]}``, the increment of the CDF across the
    interval ``[x, x + N**-k]`` with ``x = sum_l digits[l] * N**(l-k)``.
    Raises :class:`OutOfRange` for a digit outside ``0..N-1``.
    """
    n = w.n_branches
    mass = Fraction(1)
    for d in digits:
        if not 0 <= d < n:
            raise OutOfRange(f"digit {d} out of range 0..{n - 1}")
        mass *= w.weights[d]
    return mass


def _cdf_rows(table: CdfTable, sep: str) -> Iterator[str]:
    """``x{sep}F`` per sample in reduced ``p/q`` form, one gcd per coordinate."""
    cells, den, gcd = table.mesh_size, table.denominator, math.gcd
    for j, s in enumerate(table.numerators):
        g, h = gcd(j, cells), gcd(s, den)
        yield f"{j // g}/{cells // g}{sep}{format_int(s // h)}/{format_int(den // h)}"


def cdf_csv(table: CdfTable) -> str:
    """CSV of a CDF table rendered row by row: the package's per-row renderer
    before it rendered in blocks."""
    return "\n".join(["x,F", *_cdf_rows(table, ",")]) + "\n"


def cdf_json(table: CdfTable) -> str:
    """JSON of a CDF table rendered row by row, as :func:`cdf_csv`."""
    points = '"], ["'.join(_cdf_rows(table, '", "'))
    return f'{{"depth": {table.depth}, "points": [["{points}"]]}}'


def chebyshev_basis(w: WeightVector, degree: int) -> OrthoBasis:
    """Monic orthogonal basis ``p_0..p_degree`` by the Chebyshev algorithm,
    one reduced ``Fraction`` per mixed moment and coefficient.

    The package's algorithm before it held each sigma row and polynomial as
    integers over one denominator.  Raises :class:`ZeroNorm` at the same
    degree, with the same message.
    """
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


def decay_report(moments: MomentSequence) -> DecayReport:
    """The decay check on reduced raw moments, one ``Fraction`` per index:
    the package's ``check_decay`` before it read the unreduced kernel, and
    then its fixed-point enclosure."""
    n_base = moments.weights.n_branches
    last = moments.weights.weights[-1]
    if last == 0:
        ratio = Fraction(n_base, n_base - 1)
        scaled = [value * ratio**m for m, value in enumerate(moments.values)]
        regime, gamma = "exponential", math.inf
        witness = max(map(float, scaled))
        violations = tuple(m for m, s in enumerate(scaled) if s > 1)
    else:
        regime = "polynomial"
        gamma = math.log(1 / float(last)) / math.log(n_base)
        witness = min(
            float(value) * m**gamma for m, value in enumerate(moments.values) if m >= 1
        )
        violations = ()
    return DecayReport(regime, gamma, witness, moments.m_max, violations)


def grid_values_exact(basis: OrthoBasis, n_points: int, digits: int = 60) -> list[list[Decimal]]:
    """Rows of ``p_n(x) / |p_n|`` at the float grid points x of ``grid_csv``.

    Each ``p_n(x)`` is exact: the monomial coefficients over their least
    common denominator, evaluated at the dyadic rational x by integer Horner.
    Only the division by a ``digits``-digit decimal square root of
    ``|p_n|^2`` rounds.
    """
    context = Context(prec=digits)
    scales = [context.sqrt(context.divide(Decimal(v.numerator), Decimal(v.denominator)))
              for v in basis.norms_sq]
    polys = []
    for poly in basis.polys:
        den = math.lcm(*(c.denominator for c in poly))
        polys.append(([c.numerator * (den // c.denominator) for c in reversed(poly)], den))
    rows = []
    for i in range(n_points):
        r, s = (i / (n_points - 1)).as_integer_ratio()
        row = []
        for (coeffs, den), scale in zip(polys, scales):
            acc, s_power = 0, 1  # acc = s**n * p_n(r / s) * den
            for c in coeffs:
                acc = acc * r + c * s_power
                s_power *= s
            acc_den = den * s_power // s
            row.append(context.divide(context.divide(Decimal(acc), Decimal(acc_den)), scale))
        rows.append(row)
    return rows


def _ascii(kind: type) -> Callable[[str], object]:
    """``kind`` (int or float) on ASCII text without ``_``; else ValueError."""
    def read(text: str) -> object:
        if not text.isascii() or "_" in text:
            raise ValueError(f"not an ASCII {kind.__name__}: {text!r}")
        return kind(text)

    return read


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argparse parser, as it was before the flag table replaced it,
    with its numbers read as ASCII without ``_``."""
    parser = argparse.ArgumentParser(
        prog="cantor-measures",
        description="Exact and certified-fast computations for weighted Cantor measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--weights",
            required=True,
            help="comma-separated exact rationals, e.g. 1/2,0,1/2",
        )
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", default="-", help="output path; - (default) is stdout")

    for name, text in (("moments", "raw moments, exact or certified-fast"),
                       ("shifted-moments", "moments on [-1/2,1/2] (palindromic)")):
        p = sub.add_parser(name, help=text)
        common(p)
        p.add_argument("--m", type=_ascii(int), required=True, help="highest moment index")
        p.add_argument("--mode", choices=("exact", "fast"), default="exact")
        p.add_argument("--eps", type=_ascii(float), default=None, help="fast-mode error budget")

    p = sub.add_parser("cdf", help="exact CDF table on the depth-k grid")
    common(p)
    p.add_argument("--depth", type=_ascii(int), required=True)

    p = sub.add_parser("legendre", help="monic orthogonal polynomial basis")
    common(p)
    p.add_argument("--degree", type=_ascii(int), required=True)
    p.add_argument(
        "--grid-points",
        type=_ascii(int),
        default=None,
        help=f"grid resolution of the CSV plot-data export (default {GRID_POINTS})",
    )

    p = sub.add_parser("mgf", help="partial-product MGF value at s")
    common(p)
    p.add_argument("--s", type=_ascii(float), required=True)
    p.add_argument("--depth", type=_ascii(int), default=30)

    p = sub.add_parser("decay", help="moment decay regime report")
    common(p)
    p.add_argument("--m", type=_ascii(int), default=64, help="highest moment to check")

    p = sub.add_parser("lipschitz", help="CDF Lipschitz bound check for two vectors")
    common(p)
    p.add_argument("--weights-b", required=True)
    p.add_argument("--depth", type=_ascii(int), required=True)
    return parser


#: (attribute, flag, smallest accepted value) of the integer size flags.
_MINIMUMS = (("m", "--m", 0), ("degree", "--degree", 0),
             ("depth", "--depth", 1), ("grid_points", "--grid-points", 2))


def parse_argv(argv: Sequence[str]) -> tuple[argparse.Namespace, WeightVector]:
    """The CLI's flags and weights as its argparse parser read them.

    A usage error exits 2, bad weights raise.  A dash-led value is bound to
    the flag before it, then the size minimums, the weights and the
    ``--eps``/``--grid-points`` rules are checked, in that order.
    """
    argv = list(argv)
    for i in range(len(argv) - 1, 0, -1):
        if re.fullmatch("--[a-z-]+", argv[i - 1]) and re.match("-[^-]", argv[i]):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    parser = build_parser()
    args = parser.parse_args(argv)
    for attr, flag, low in _MINIMUMS:
        value = getattr(args, attr, None)
        if value is not None and value < low:
            parser.error(f"{args.command} {flag} must be at least {low}, got {value}")
    weights = parse_weights(args.weights)
    fast = getattr(args, "mode", None) == "fast"
    if fast and args.eps is None:
        parser.error(f"{args.command} --mode fast requires --eps")
    if not fast and getattr(args, "eps", None) is not None:
        parser.error(f"{args.command} --eps applies only to --mode fast")
    if args.format == "json" and getattr(args, "grid_points", None) is not None:
        parser.error(f"{args.command} --grid-points applies only to --format csv")
    return args, weights
