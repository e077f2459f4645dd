"""Weighted Cantor measures: exact moments, CDFs, MGFs, orthogonal polynomials.

A weight vector (exact nonnegative rationals summing to 1) determines a
self-similar probability measure on [0, 1].  This package computes, in exact
rational arithmetic, its CDF on N-adic grids, its moments via closed
recurrences, and its monic orthogonal polynomial bases; and, in certified
double precision, its first m moments via truncated products of the moment
generating function with an explicit per-index error bound.
"""
from __future__ import annotations

from .analysis import (
    DecayReport,
    LipschitzCheck,
    check_decay,
    check_lipschitz,
    holder_exponent,
)
from .errors import (
    BadTolerance,
    CantorMeasureError,
    Degenerate,
    DepthOverflow,
    FloatOverflow,
    InsufficientMoments,
    MeshMismatch,
    NotASimplexPoint,
    NotPalindromic,
    OutOfDomain,
    OutOfRange,
    ZeroNorm,
)
from .legendre import (
    OrthoBasis,
    eval_poly,
    grid_csv,
    inner_product,
    monic_basis_general,
    monic_basis_symmetric,
    normalize,
)
from .measure import (
    DEPTH_CAP,
    CdfTable,
    WeightVector,
    cdf_eval,
    cdf_sup_distance,
    cdf_table,
    kronecker_power,
    parse_weights,
)
from .moments import (
    MomentSequence,
    exact_moments,
    left_endpoint_estimate,
    shifted_moments,
)

__version__ = "0.1.0"

#: Names re-exported from :mod:`.fast`, resolved on first use (PEP 562) so
#: that the exact paths never import numpy.
_FAST_NAMES = frozenset({
    "MIN_TOLERANCE",
    "FastResult",
    "depth_for_eps",
    "fast_moments",
    "mgf_eval",
    "partial_product_series",
    "series_mul_trunc",
    "shifted_fast_moments",
    "truncated_factor",
})


def __getattr__(name: str):
    if name in _FAST_NAMES:
        from . import fast

        return getattr(fast, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _FAST_NAMES)

__all__ = [
    "BadTolerance",
    "CantorMeasureError",
    "CdfTable",
    "DEPTH_CAP",
    "DecayReport",
    "Degenerate",
    "DepthOverflow",
    "FastResult",
    "FloatOverflow",
    "InsufficientMoments",
    "LipschitzCheck",
    "MIN_TOLERANCE",
    "MeshMismatch",
    "MomentSequence",
    "NotASimplexPoint",
    "NotPalindromic",
    "OrthoBasis",
    "OutOfDomain",
    "OutOfRange",
    "WeightVector",
    "ZeroNorm",
    "cdf_eval",
    "cdf_sup_distance",
    "cdf_table",
    "check_decay",
    "check_lipschitz",
    "depth_for_eps",
    "eval_poly",
    "exact_moments",
    "fast_moments",
    "grid_csv",
    "holder_exponent",
    "inner_product",
    "kronecker_power",
    "left_endpoint_estimate",
    "mgf_eval",
    "monic_basis_general",
    "monic_basis_symmetric",
    "normalize",
    "parse_weights",
    "partial_product_series",
    "series_mul_trunc",
    "shifted_fast_moments",
    "shifted_moments",
    "truncated_factor",
]
