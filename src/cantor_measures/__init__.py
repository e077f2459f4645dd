"""Weighted Cantor measures: exact moments, CDFs, MGFs, orthogonal polynomials.

A weight vector (exact nonnegative rationals summing to 1) determines a
self-similar probability measure on [0, 1].  This package computes, in exact
rational arithmetic, its CDF on N-adic grids, its moments via closed
recurrences, and its monic orthogonal polynomial bases: these exact names
are the package root, which never imports numpy.  The float API (certified
double-precision moments from truncated products of the moment generating
function, and MGF values) is imported from :mod:`cantor_measures.fast`.
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

__all__ = [
    "BadTolerance",
    "CantorMeasureError",
    "CdfTable",
    "DEPTH_CAP",
    "DecayReport",
    "Degenerate",
    "DepthOverflow",
    "FloatOverflow",
    "InsufficientMoments",
    "LipschitzCheck",
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
    "eval_poly",
    "exact_moments",
    "grid_csv",
    "holder_exponent",
    "inner_product",
    "kronecker_power",
    "left_endpoint_estimate",
    "monic_basis_general",
    "monic_basis_symmetric",
    "parse_weights",
    "shifted_moments",
]
