"""Weighted Cantor measures: exact moments, CDFs, MGFs, orthogonal polynomials.

A weight vector (exact nonnegative rationals summing to 1) determines a
self-similar probability measure on [0, 1].  This package computes, in exact
rational arithmetic, its CDF on N-adic grids, its moments via closed
recurrences, and its monic orthogonal polynomial bases: these exact names
are the package root, which never imports numpy.  The float API (certified
double-precision moments from truncated products of the moment generating
function, and MGF values) is imported from :mod:`cantor_measures.fast`.

The root imports no submodule itself: each name of ``__all__`` is looked up
in its module on first access (PEP 562), so ``import cantor_measures.cli``
loads only what the command it runs needs.
"""
from __future__ import annotations

import importlib

__version__ = "0.1.0"

#: Each public name and the submodule that defines it.
_MODULES = {name: module for module, names in (
    ("analysis", "DecayReport LipschitzCheck check_decay check_lipschitz"),
    ("errors", "BadTolerance CantorMeasureError DepthOverflow FloatOverflow InsufficientMoments"
               " MeshMismatch NotASimplexPoint NotPalindromic OutOfDomain OutOfRange ZeroNorm"),
    ("legendre", "OrthoBasis grid_csv inner_product monic_basis_general monic_basis_symmetric"),
    ("measure", "CdfTable cdf_sup_distance cdf_table kronecker_power"),
    ("moments", "MomentSequence exact_moments shifted_moments"),
    ("weights", "DEPTH_CAP WeightVector parse_weights"),
) for name in names.split()}

__all__ = sorted(_MODULES)


def __getattr__(name: str):
    """A name of ``__all__`` from its module, or a submodule, bound here on first use."""
    if name in _MODULES:
        value = getattr(importlib.import_module(f".{_MODULES[name]}", __name__), name)
    elif name in _MODULES.values():
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_MODULES.values()})
