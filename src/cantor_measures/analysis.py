"""Quantitative regularity and decay checks.

Three checkable facts about a weighted Cantor measure:

* its CDF is Holder continuous with exponent ``log(1/r) / log(N)`` where
  ``r`` is the largest weight (degenerate vectors excluded);
* its moments decay exponentially, ``I_m <= ((N-1)/N)**m``, exactly when the
  last weight is zero, and otherwise only polynomially,
  ``I_m >= C * m**-gamma`` with ``gamma = log_N(1 / alpha_{N-1})``;
* depth-k CDF interpolants are Lipschitz in the weights:
  ``sup|F_alpha,k - F_beta,k| <= k * N**k * max|alpha - beta|``.

The polynomial-decay branch ships as a bounded-range empirical check (the
infimum of ``I_m * m**gamma`` over the supplied moments) because the
constant in the supporting argument is not constructive; the exponential
branch and the Lipschitz bound are exact rational comparisons.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import Degenerate, InsufficientMoments, MeshMismatch
from .measure import WeightVector, cdf_sup_distance, cdf_table
from .moments import MomentSequence
from .rational import format_float, format_rational


def holder_exponent(w: WeightVector) -> float:
    """Holder continuity exponent ``log(1/max(alpha)) / log(N)`` of the CDF."""
    if w.is_degenerate:
        raise Degenerate(
            "a Dirac measure has a discontinuous CDF (no positive Holder exponent)"
        )
    r = max(w.weights)
    return math.log(1 / float(r)) / math.log(w.n_branches)


@dataclass(frozen=True)
class DecayReport:
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

    regime: str
    gamma: float
    witness_constant: float
    max_m_checked: int
    violations: tuple[int, ...]

    def to_json(self) -> str:
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


def check_decay(moments: MomentSequence) -> DecayReport:
    """Check the decay regime of raw moments, read against ``moments.weights``.

    The weights alone decide the regime.  Exponential regime (last weight
    zero): verifies ``I_m <= ((N-1)/N)**m`` for every supplied m by exact
    rational comparison.  Polynomial regime: reports the empirical infimum
    of ``I_m * m**gamma`` and no violations.
    """
    if moments.kind != "raw":
        raise ValueError(f"raw moments expected, got kind={moments.kind!r}")
    if moments.m_max < 1:
        raise InsufficientMoments("need at least the first moment")
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


class LipschitzCheck(NamedTuple):
    """Sup distance of two depth-k interpolants against the Lipschitz bound."""

    distance: Fraction
    bound: Fraction
    ok: bool

    def to_json(self) -> str:
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
