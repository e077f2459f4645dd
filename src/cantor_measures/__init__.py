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
    BadDigit,
    BadSetting,
    BadTolerance,
    CantorMeasureError,
    Degenerate,
    DepthOverflow,
    FloatOverflow,
    InsufficientMoments,
    MeshMismatch,
    NotASimplexPoint,
    NotOdd,
    NotPalindromic,
    OutOfDomain,
    OutOfRange,
    ZeroNorm,
)
from .fast import (
    MIN_TOLERANCE,
    FastResult,
    depth_for_eps,
    fast_moments,
    mgf_eval,
    moments_at_depth,
    partial_product_series,
    series_mul_trunc,
    shifted_fast_moments,
    truncated_factor,
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
    DEFAULT_DEPTH_CAP,
    CdfTable,
    WeightVector,
    cdf_eval,
    cdf_sup_distance,
    cdf_table,
    depth_cap,
    interval_mass,
    kronecker_power,
    parse_weights,
    weight_vector,
)
from .moments import (
    MomentSequence,
    approx_error_depth,
    exact_moments,
    exact_moments_via_depth,
    left_endpoint_estimate,
    palindromic_odd_moment,
    shifted_moments,
)

__version__ = "0.1.0"

__all__ = [
    "BadDigit",
    "BadSetting",
    "BadTolerance",
    "CantorMeasureError",
    "CdfTable",
    "DEFAULT_DEPTH_CAP",
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
    "NotOdd",
    "NotPalindromic",
    "OrthoBasis",
    "OutOfDomain",
    "OutOfRange",
    "WeightVector",
    "ZeroNorm",
    "approx_error_depth",
    "cdf_eval",
    "cdf_sup_distance",
    "cdf_table",
    "check_decay",
    "check_lipschitz",
    "depth_cap",
    "depth_for_eps",
    "eval_poly",
    "exact_moments",
    "exact_moments_via_depth",
    "fast_moments",
    "grid_csv",
    "holder_exponent",
    "inner_product",
    "interval_mass",
    "kronecker_power",
    "left_endpoint_estimate",
    "mgf_eval",
    "moments_at_depth",
    "monic_basis_general",
    "monic_basis_symmetric",
    "normalize",
    "palindromic_odd_moment",
    "parse_weights",
    "partial_product_series",
    "series_mul_trunc",
    "shifted_fast_moments",
    "shifted_moments",
    "truncated_factor",
    "weight_vector",
]
