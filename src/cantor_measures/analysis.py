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

from .errors import BadTolerance, Degenerate, InsufficientMoments, MeshMismatch
from .measure import WeightVector, cdf_sup_distance, cdf_table
from .moments import MomentSequence
from .rational import format_rational


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
    never exceeds 1.  ``violations`` lists indices failing the regime's
    bound (exact comparison) or, in the polynomial regime, falling below the
    caller's threshold.
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


def check_decay(moments: MomentSequence, threshold: float | None = None) -> DecayReport:
    """Check the decay regime of raw moments, read against ``moments.weights``.

    Exponential regime (last weight zero): verifies ``I_m <= ((N-1)/N)**m``
    for every supplied m by exact rational comparison.  Polynomial regime:
    reports the empirical infimum of ``I_m * m**gamma`` and, when
    ``threshold`` is given, flags indices falling below it.  A non-finite
    ``threshold``, or any ``threshold`` in the exponential regime, where it
    has no meaning, raises :class:`BadTolerance`.
    """
    if moments.kind != "raw":
        raise ValueError(f"raw moments expected, got kind={moments.kind!r}")
    if moments.m_max < 1:
        raise InsufficientMoments("need at least the first moment")
    if threshold is not None and not math.isfinite(threshold):
        raise BadTolerance(f"decay threshold must be finite, got {threshold}")
    w = moments.weights
    n_base = w.n_branches
    last = w.weights[-1]
    if last == 0:
        if threshold is not None:
            raise BadTolerance(
                f"a decay threshold applies only to the polynomial regime, got "
                f"{threshold} for {w} (last weight 0: exponential regime)"
            )
        ratio = Fraction(n_base - 1, n_base)
        violations = []
        witness = 0.0
        bound = Fraction(1)
        for m, value in enumerate(moments.values):
            if m > 0:
                bound *= ratio
            if value > bound:
                violations.append(m)
            witness = max(witness, float(value / bound))
        return DecayReport(
            regime="exponential",
            gamma=math.inf,
            witness_constant=witness,
            max_m_checked=moments.m_max,
            violations=tuple(violations),
        )
    gamma = math.log(1 / float(last)) / math.log(n_base)
    scaled = [
        float(value) * m**gamma for m, value in enumerate(moments.values) if m >= 1
    ]
    witness = min(scaled)
    violations = (
        tuple(m for m, s in enumerate(scaled, start=1) if s < threshold)
        if threshold is not None
        else ()
    )
    return DecayReport(
        regime="polynomial",
        gamma=gamma,
        witness_constant=witness,
        max_m_checked=moments.m_max,
        violations=violations,
    )


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
