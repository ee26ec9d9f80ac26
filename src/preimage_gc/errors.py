"""Exception taxonomy shared across the package.

Everything raised deliberately by this library derives from
:class:`PreimageGCError`, so callers can catch one base class at the
boundary (the CLI does exactly that). Genuine usage errors such as bad
argument values, and malformed input text such as a panel CSV with an
unparseable cell, raise the builtin ``ValueError`` instead.
"""

from __future__ import annotations


class PreimageGCError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateInputError(PreimageGCError):
    """Input data carries no usable signal (constant column, identical points)."""


class InsufficientSamplesError(PreimageGCError):
    """Too few rows for the requested operation."""


class ShapeError(PreimageGCError):
    """Array dimensions are incompatible with the operation."""


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


class UndefinedAucError(PreimageGCError):
    """ROC-AUC requested for a single-class labeling."""


class ConfigError(PreimageGCError):
    """A config file contains unknown sections/keys or unusable values."""
