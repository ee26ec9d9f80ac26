"""Exception taxonomy shared across the package.

One rule splits what this library raises. What the caller passed is
refused with the builtin ``ValueError``: a bad argument value or shape,
a malformed config, and malformed input text such as a panel CSV with
an unparseable cell. A failure of the computation on accepted input
raises a subclass of :class:`PreimageGCError`, so a caller can catch
that one base class at the boundary. The CLI exits 2 on a
``ValueError`` (or an ``OSError`` reading a file) and 1 on a
``PreimageGCError``.
"""

from __future__ import annotations


class PreimageGCError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateInputError(PreimageGCError):
    """Input data carries no usable signal (constant column, identical points)."""


class InsufficientSamplesError(PreimageGCError):
    """Too few rows for the requested operation."""


class RankError(PreimageGCError):
    """A matrix has lower rank than the operation requires.

    ``achievable_rank`` carries the rank that was actually available, so
    callers can retry with a smaller request where that is meaningful.
    """

    def __init__(self, message, achievable_rank=None):
        super().__init__(message)
        self.achievable_rank = achievable_rank


class EigensolverError(PreimageGCError):
    """A LAPACK decomposition did not converge."""


class InstabilityError(PreimageGCError):
    """A synthetic trajectory diverged; the message names the simulation
    step (burn-in included) at which the state first reached the magnitude
    bound."""


class DegenerateModelError(PreimageGCError):
    """A fitted model produced a nonpositive residual variance."""


