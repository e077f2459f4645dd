"""Exception hierarchy for domain errors.

Every error raised for a violated mathematical precondition derives from
:class:`CantorMeasureError`, which itself derives from ``ValueError`` so that
generic callers may catch it without importing this module.
"""
from __future__ import annotations


class CantorMeasureError(ValueError):
    """Base class for all domain errors raised by this package."""


class NotASimplexPoint(CantorMeasureError):
    """Weight entries are negative or do not sum to one exactly."""


class OutOfDomain(CantorMeasureError):
    """An evaluation point lies outside its domain.

    A CDF point outside ``[0, 1]``, or a non-finite MGF argument ``s``.
    """


class MeshMismatch(CantorMeasureError):
    """Two CDF tables do not share the same sample grid."""


class NotPalindromic(CantorMeasureError):
    """An operation requiring a palindromic weight vector received another."""


class BadTolerance(CantorMeasureError):
    """A tolerance is not finite, nonpositive or below double precision."""


class OutOfRange(CantorMeasureError):
    """A size (moment index, degree, depth, grid points) is below its minimum,
    or above ``DEPTH_CAP``: the :class:`DepthOverflow` case."""


class DepthOverflow(OutOfRange):
    """A size (table entries, moment index, grid values) exceeds the cap."""


class FloatOverflow(CantorMeasureError):
    """A double-precision result exceeds the largest finite double."""


class ZeroNorm(CantorMeasureError):
    """An orthogonal polynomial has zero norm (finitely supported measure)."""


class InsufficientMoments(CantorMeasureError):
    """A moment sequence is too short for the requested computation."""


class Degenerate(CantorMeasureError):
    """The weight vector is a simplex vertex (Dirac measure)."""
