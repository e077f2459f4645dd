"""Quantitative regularity and decay checks, and MGF values.

Two checkable facts about a weighted Cantor measure:

* its moments decay exponentially, ``I_m <= ((N-1)/N)**m``, exactly when the
  last weight is zero, and otherwise only polynomially,
  ``I_m >= C * m**-gamma`` with ``gamma = log_N(1 / alpha_{N-1})``;
* depth-k CDF interpolants are Lipschitz in the weights:
  ``sup|F_alpha,k - F_beta,k| <= k * N**k * max|alpha - beta|``.

The polynomial-decay branch reports the empirical infimum of
``I_m * m**gamma`` over ``1 <= m <= m_max``.  A constant is at hand (the
last depth-k cell, ``k = ceil(log_N m)``, gives ``I_m >= (alpha_{N-1}/4) *
m**-gamma`` for m >= 2) but is not checked yet.  The exponential branch is
an exact comparison and the Lipschitz bound an exact rational one.  Both
decay branches read a fixed-point enclosure of ``I_m``, O(m**2) products of
O(m)-bit integers where the exact kernel's grow to O(m**2) bits, and fall
back to the exact kernel only where the enclosure leaves a float or a
comparison undecided.

:func:`mgf_eval` gives the depth-k partial product of the moment
generating function in floats, without numpy, so the ``mgf`` command loads
none; :mod:`.fast` re-exports it with :class:`MgfValue`.
"""
from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from ._frozen import Frozen
from .errors import FloatOverflow, InsufficientMoments, MeshMismatch, OutOfDomain, OutOfRange
from .measure import cdf_sup_distance, cdf_table
from .moments import _moment_enclosure, _self_similar_moments
from .rational import format_float, format_rational
from .weights import WeightVector


class DecayReport(Frozen):
    """Outcome of the moment-decay check over a finite range of moments.

    ``regime`` is ``"exponential"`` iff the last weight is zero; ``gamma``
    is the polynomial decay exponent (``inf`` in the exponential regime).
    In the polynomial regime ``witness_constant`` is the empirical infimum
    of ``I_m * m**gamma`` over ``1 <= m <= max_m_checked``; in the
    exponential regime it is the maximum of ``I_m * (N/(N-1))**m``, which
    never exceeds 1.  ``violations`` lists the indices failing the
    exponential bound (exact comparison); it is empty in the polynomial
    regime, which has no checked bound yet.
    """

    __slots__ = ("regime", "gamma", "witness_constant", "max_m_checked", "violations")

    def __init__(self, regime: str, gamma: float, witness_constant: float,
                 max_m_checked: int, violations: tuple[int, ...]) -> None:
        object.__setattr__(self, "regime", regime)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "witness_constant", witness_constant)
        object.__setattr__(self, "max_m_checked", max_m_checked)
        object.__setattr__(self, "violations", violations)

    def to_json(self) -> str:
        import json

        data: dict = {"regime": self.regime}
        if self.regime == "polynomial":
            data["gamma"] = self.gamma
        data["witness_constant"] = self.witness_constant
        data["max_m_checked"] = self.max_m_checked
        data["violations"] = list(self.violations)
        return json.dumps(data)

    def to_csv(self) -> str:
        return (
            "regime,gamma,witness_constant,max_m_checked,ok\n"
            f"{self.regime},{format_float(self.gamma)},"
            f"{format_float(self.witness_constant)},{self.max_m_checked},"
            f"{not self.violations}\n"
        )


def check_decay(w: WeightVector, m_max: int) -> DecayReport:
    """Check the decay regime of the raw moments ``I_1..I_{m_max}`` of ``w``.

    The weights alone decide the regime.  Exponential regime (last weight
    zero): verifies ``I_m <= ((N-1)/N)**m`` for every m by exact comparison.
    Polynomial regime: reports the empirical infimum of ``I_m * m**gamma``
    and no violations, or raises :class:`FloatOverflow` when the last
    weight is so small that this float report leaves the double range.

    Both read the fixed-point enclosure ``lo_m <= I_m * 2**b <= lo_m + m``
    of :func:`moments._moment_enclosure`, with ``b = 96 + m_max * bits(N)``.
    A float is decided when both ends, in integer true division, round to
    the same double (rounding is monotone, so that double is the correctly
    rounded value), and the exact test ``I_m * N**m > (N-1)**m`` when both
    ends fall on one side.  If some index stays undecided (a value on a
    rounding tie, an exact 0, or one below ``2**-b``), the exact kernel's
    ``u_m / D_m`` decides every index instead, with the same tests on an
    interval of width 0.  Either way each float equals that of the reduced
    ``Fraction``, and no value is reduced.
    """
    n_base = w.n_branches
    bits = 96 + m_max * n_base.bit_length()
    lows = _moment_enclosure(w, m_max, bits)
    if m_max < 1:
        raise InsufficientMoments("need at least the first moment")
    one = 1 << bits
    report = _decay_report(w, [(lo, lo + m, one) for m, lo in enumerate(lows)])
    if report is None:
        numerators, denominators = _self_similar_moments(w, range(n_base), m_max)
        report = _decay_report(w, list(zip(numerators, numerators, denominators)))
    return report


def _decay_report(w: WeightVector, bounds: list[tuple[int, int, int]]) -> DecayReport | None:
    """The report from ``lo_m / d_m <= I_m <= hi_m / d_m`` for each ``(lo_m, hi_m, d_m)``
    of ``bounds``, or None when they leave a float or a comparison undecided."""
    n_base, last, m_max = w.n_branches, w.weights[-1], len(bounds) - 1
    if last == 0:  # the bounds of I_m * (N/(N-1))**m, compared with 1
        values, violations = [], []
        for m, (lo, hi, d) in enumerate(bounds):
            lo, hi, d = lo * n_base**m, hi * n_base**m, d * (n_base - 1)**m
            value = lo / d
            if value != hi / d or lo <= d < hi:
                return None
            values.append(value)
            if lo > d:
                violations.append(m)
        return DecayReport("exponential", math.inf, max(values), m_max, tuple(violations))
    try:
        gamma = math.log(1 / float(last)) / math.log(n_base)
        # An overflowing m**gamma raises here, before the exact kernel could run.
        powers, terms = [m**gamma for m in range(1, m_max + 1)], []
        for power, (lo, hi, d) in zip(powers, bounds[1:]):
            value = lo / d
            if value != hi / d:
                return None
            terms.append(value * power)
        if gamma == math.inf or not all(0 < t < math.inf for t in terms):
            raise OverflowError
    except (ZeroDivisionError, OverflowError):
        raise FloatOverflow(
            "the decay witness I_m * m**gamma leaves the double range: "
            "the last weight is too small for a float report"
        ) from None
    return DecayReport("polynomial", gamma, min(terms), m_max, ())


class LipschitzCheck(namedtuple("LipschitzCheck", ("distance", "bound", "ok"))):
    """Sup distance of two depth-k interpolants against the Lipschitz bound.

    ``distance`` and ``bound`` are Fractions, ``ok`` is ``distance <= bound``.
    """

    __slots__ = ()

    def to_json(self) -> str:
        import json

        return json.dumps(
            {
                "distance": format_rational(self.distance),
                "bound": format_rational(self.bound),
                "ok": self.ok,
            }
        )

    def to_csv(self) -> str:
        return (
            "distance,bound,ok\n"
            f"{format_rational(self.distance)},{format_rational(self.bound)},{self.ok}\n"
        )


def check_lipschitz(wa: WeightVector, wb: WeightVector, k: int) -> LipschitzCheck:
    """Exact check of ``sup|F_a,k - F_b,k| <= k * N**k * max|alpha - beta|``."""
    if wa.n_branches != wb.n_branches:
        raise MeshMismatch(
            f"weight vectors have different bases: {wa.n_branches} vs {wb.n_branches}"
        )
    distance = cdf_sup_distance(cdf_table(wa, k), cdf_table(wb, k))
    delta = max(abs(a - b) for a, b in zip(wa.weights, wb.weights))
    bound = k * wa.n_branches**k * delta
    return LipschitzCheck(distance=distance, bound=bound, ok=distance <= bound)


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


class MgfValue(Frozen):
    """An :func:`mgf_eval` value with its arguments, as the ``mgf`` command prints it."""

    __slots__ = ("s", "depth", "value")

    def __init__(self, s: float, depth: int, value: float) -> None:
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "value", value)

    def to_csv(self) -> str:
        return f"s,depth,value\n{self.s:.17g},{self.depth},{self.value:.17g}\n"

    def to_json(self) -> str:
        import json

        return json.dumps({"s": self.s, "depth": self.depth, "value": self.value})
